package llstar_test

import (
	"errors"
	"strings"
	"testing"

	"llstar"
	"llstar/internal/atn"
)

// capGrammar has one token that ends in an 'a' followed by n more
// letters. Its lexer must remember the last n+1 letters it read, so its
// DFA has 2^(n+1) states: 13 copies overflow the 8192-state cap, 10
// copies (2048 states) stay well under it.
func capGrammar(n int) string {
	return "grammar Cap;\ns : (T)+ ;\nT : ('a'|'b')* 'a'" + strings.Repeat(" ('a'|'b')", n) + " ;\nWS : (' ')+ { skip(); } ;\n"
}

// TestLexDFACap: a lexer over the DFA state cap fails closed with one
// typed error, built once and cached, that parsing, streaming sessions
// and code generation all report.
func TestLexDFACap(t *testing.T) {
	g, err := llstar.Load("cap.g", capGrammar(13))
	if err != nil {
		t.Fatalf("load must not build the lexer DFA: %v", err)
	}
	input := "ba" + strings.Repeat("b", 13)
	lexErr := func(what string, err error) *atn.LexDFAError {
		t.Helper()
		var le *atn.LexDFAError
		if !errors.As(err, &le) {
			t.Fatalf("%s: got %v, want *atn.LexDFAError", what, err)
		}
		return le
	}
	first := lexErr("parse", parseErr(g, input))
	// The failed build is cached with the DFA: a second parse reports
	// the very same error value instead of determinizing again.
	if again := lexErr("second parse", parseErr(g, input)); again != first {
		t.Fatalf("second parse rebuilt the DFA: error %p, first %p", again, first)
	}
	s, err := g.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if got := lexErr("session feed", s.Feed([]byte(input))); got != first {
		t.Fatalf("session feed: error %p, want %p", got, first)
	}
	_, err = g.GenerateGo("cap")
	if got := lexErr("generate", err); got != first {
		t.Fatalf("generate: error %p, want %p", got, first)
	}
}

func parseErr(g *llstar.Grammar, input string) error {
	_, err := g.NewParser().Parse("", input)
	return err
}
