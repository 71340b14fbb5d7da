package runtime

import (
	"fmt"

	"llstar/internal/token"
)

// SyntaxError reports a parse failure at a specific token. Per
// Section 4.4, LL(*) parsers report the token that drove the lookahead
// DFA (or the deepest speculative parse) into an error state, not the
// token where prediction started.
type SyntaxError struct {
	// Offending is the token at which the failure was detected.
	Offending token.Token
	// Rule is the rule being parsed when the error surfaced.
	Rule string
	// Msg describes the failure ("no viable alternative", "expecting X",
	// "predicate failed", ...).
	Msg string
}

func (e *SyntaxError) Error() string {
	what := e.Offending.Text
	if e.Offending.Type == token.EOF {
		what = "<EOF>"
	}
	if e.Rule != "" {
		return fmt.Sprintf("%s: rule %s: %s at %q", e.Offending.Pos, e.Rule, e.Msg, what)
	}
	return fmt.Sprintf("%s: %s at %q", e.Offending.Pos, e.Msg, what)
}

// LexError reports a character the lexer could not match.
type LexError struct {
	Pos  token.Pos
	Rune rune
}

func (e *LexError) Error() string {
	return fmt.Sprintf("%s: cannot match character %q", e.Pos, e.Rune)
}

// ErrorListener receives syntax errors as they are detected; parsers call
// it before attempting recovery. A nil listener means errors are only
// returned.
type ErrorListener func(*SyntaxError)

// Probe returns the consumer delivering SyntaxError events to l.
func (l ErrorListener) Probe() Probe { return errorProbe{fn: l} }

type errorProbe struct {
	NopProbe
	fn ErrorListener
}

func (e errorProbe) SyntaxError(se *SyntaxError) { e.fn(se) }
