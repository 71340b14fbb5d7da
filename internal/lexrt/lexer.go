// Package lexrt is the lexer engine: it tokenizes with the grammar's
// lexer DFA (atn.LexMachine.DFA) under maximal-munch semantics —
// longest match wins, and among rules matching the same longest prefix
// the one declared first (with implicit literals outranking named rules)
// wins. Matches from rules carrying a skip() action are discarded;
// channel(HIDDEN) rules are emitted off the default channel.
//
// The DFA is determinized once per grammar and shared by every lexer
// and by generated parsers, so lexing costs one class lookup and one
// table index per character.
//
// ChunkLexer (chunk.go) holds the one match loop: it tokenizes byte
// chunks arriving incrementally, suspending mid-token at buffer
// boundaries. Lexer is a ChunkLexer fed a whole in-memory string at
// once.
package lexrt

import (
	"llstar/internal/atn"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// Lexer tokenizes an input string using a LexMachine. It implements
// runtime.TokenSource.
type Lexer struct {
	c ChunkLexer
}

var _ runtime.TokenSource = (*Lexer)(nil)

// New returns a lexer over input.
func New(lm *atn.LexMachine, input string) *Lexer {
	l := &Lexer{}
	l.c.init(lm)
	l.c.buf = []byte(input)
	l.c.Finish()
	l.c.buf = nil // all decoded: nothing more will be fed
	return l
}

// NextToken implements runtime.TokenSource: it returns the next token on
// any channel (the token stream filters channels), an EOF token at end of
// input (repeatedly), or an error: a *runtime.LexError, or the
// *atn.LexDFAError of a lexer too large to determinize.
func (l *Lexer) NextToken() (token.Token, error) {
	tok, _, err := l.c.Next()
	return tok, err
}
