package lexrt

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"llstar/internal/atn"
	"llstar/internal/grammar"
	"llstar/internal/meta"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

func lexAll(t *testing.T, src, input string) ([]token.Token, error) {
	t.Helper()
	g, err := meta.Parse("t.g", src)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	if err := grammar.FirstFatal(grammar.Validate(g)); err != nil {
		t.Fatalf("validate: %v", err)
	}
	m, err := atn.Build(g)
	if err != nil {
		t.Fatalf("atn: %v", err)
	}
	lx := New(m.Lex, input)
	var out []token.Token
	for {
		tok, err := lx.NextToken()
		if err != nil {
			return out, err
		}
		if tok.Type == token.EOF {
			return out, nil
		}
		out = append(out, tok)
	}
}

const lexGrammar = `
grammar L;
s : ID ;
ID : ('a'..'z'|'_') ('a'..'z'|'0'..'9'|'_')* ;
INT : ('0'..'9')+ ;
FLOAT : ('0'..'9')+ '.' ('0'..'9')+ ;
WS : (' '|'\t'|'\n')+ { skip(); } ;
`

func kinds(g string, toks []token.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, "|")
}

func TestLexBasics(t *testing.T) {
	toks, err := lexAll(t, lexGrammar, "abc 12 3.5 x_1")
	if err != nil {
		t.Fatal(err)
	}
	if got := kinds("", toks); got != "abc|12|3.5|x_1" {
		t.Errorf("tokens: %s", got)
	}
}

// Maximal munch: FLOAT beats INT '.' INT; longest ID wins.
func TestLongestMatch(t *testing.T) {
	toks, err := lexAll(t, lexGrammar, "12.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Text != "12.5" {
		t.Errorf("want one FLOAT token, got %v", toks)
	}
}

// Literals used in parser rules outrank named lexer rules on equal-length
// matches: 'if' lexes as the literal, 'iffy' as ID.
func TestLiteralPriority(t *testing.T) {
	src := `
grammar K;
s : 'if' ID ;
ID : ('a'..'z')+ ;
WS : (' ')+ { skip(); } ;
`
	g, err := meta.Parse("t.g", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := atn.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	lx := New(m.Lex, "if iffy")
	t1, _ := lx.NextToken()
	t2, _ := lx.NextToken()
	if t1.Type != g.Vocab.Literal("if") {
		t.Errorf("'if' should lex as literal, got type %d", t1.Type)
	}
	if t2.Type != g.Vocab.Lookup("ID") || t2.Text != "iffy" {
		t.Errorf("'iffy' should lex as ID, got %v", t2)
	}
}

func TestPositions(t *testing.T) {
	toks, err := lexAll(t, lexGrammar, "ab\n  cd")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first pos: %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("second pos: %v", toks[1].Pos)
	}
}

func TestLexError(t *testing.T) {
	_, err := lexAll(t, lexGrammar, "ab @")
	le, ok := err.(*runtime.LexError)
	if !ok {
		t.Fatalf("want LexError, got %v", err)
	}
	if le.Rune != '@' || le.Pos.Col != 4 {
		t.Errorf("error detail: %v", le)
	}
}

// Block comments with the (~'*' | '*'+ ~('/'|'*'))* '*'+ '/' shape must
// stop at the first terminator, not the last.
func TestBlockCommentNonGreedy(t *testing.T) {
	src := `
grammar C;
s : ID ;
ID : ('a'..'z')+ ;
WS : (' ')+ { skip(); } ;
COMMENT : '/*' (~('*') | ('*')+ ~('/'|'*'))* ('*')+ '/' { skip(); } ;
`
	toks, err := lexAll(t, src, "/* one */ mid /* two **/ end")
	if err != nil {
		t.Fatal(err)
	}
	if got := kinds("", toks); got != "mid|end" {
		t.Errorf("comment handling: %s", got)
	}
}

// Fragments inline; recursive lexer rules are rejected at build time.
func TestFragmentsAndRecursion(t *testing.T) {
	src := `
grammar F;
s : NUM ;
fragment DIGIT : '0'..'9' ;
NUM : DIGIT (DIGIT)* ;
`
	toks, err := lexAll(t, src, "123")
	if err != nil || len(toks) != 1 {
		t.Fatalf("fragment lexing: %v %v", toks, err)
	}

	bad := `
grammar R;
s : A ;
A : 'x' A | 'y' ;
`
	g, err := meta.Parse("t.g", bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atn.Build(g); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive lexer rule must be rejected, got %v", err)
	}
}

// Property: lexing the space-joined rendering of random tokens yields
// exactly those tokens back (round-trip through the lexer DFA tables),
// for any interleaving and length.
func TestLexRoundTripProperty(t *testing.T) {
	g, err := meta.Parse("t.g", lexGrammar)
	if err != nil {
		t.Fatal(err)
	}
	m, err := atn.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	id, in, fl := g.Vocab.Lookup("ID"), g.Vocab.Lookup("INT"), g.Vocab.Lookup("FLOAT")
	samples := []struct {
		text string
		typ  token.Type
	}{
		{"abc", id}, {"x", id}, {"zz_9", id},
		{"0", in}, {"42", in}, {"123456", in},
		{"1.5", fl}, {"0.001", fl},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30)
		var parts []string
		var want []token.Type
		for i := 0; i < n; i++ {
			s := samples[r.Intn(len(samples))]
			parts = append(parts, s.text)
			want = append(want, s.typ)
		}
		lx := New(m.Lex, strings.Join(parts, " "))
		for i := 0; ; i++ {
			tok, err := lx.NextToken()
			if err != nil {
				return false
			}
			if tok.Type == token.EOF {
				return i == len(want)
			}
			if i >= len(want) || tok.Type != want[i] || tok.Text != parts[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// EOF repeats forever once reached.
func TestEOFSticky(t *testing.T) {
	g, _ := meta.Parse("t.g", lexGrammar)
	m, _ := atn.Build(g)
	lx := New(m.Lex, "a")
	lx.NextToken()
	for i := 0; i < 3; i++ {
		tok, err := lx.NextToken()
		if err != nil || tok.Type != token.EOF {
			t.Fatalf("EOF not sticky: %v %v", tok, err)
		}
	}
}
