package interp

import (
	"strings"
	"testing"

	"llstar/internal/core"
	"llstar/internal/grammar"
	"llstar/internal/meta"
	"llstar/internal/runtime"
)

// newProfiled returns a parser whose probe profiles into the returned
// stats.
func newProfiled(res *core.Result, opts Options) (*Parser, *runtime.ParseStats) {
	st := runtime.NewParseStats(res.Shape())
	opts.Probe = st
	return New(res, opts), st
}

func analyzeSrc(t *testing.T, src string) *core.Result {
	t.Helper()
	g, err := meta.Parse("test.g", src)
	if err != nil {
		t.Fatalf("parse grammar: %v", err)
	}
	if err := grammar.FirstFatal(grammar.Validate(g)); err != nil {
		t.Fatalf("validate: %v", err)
	}
	res, err := core.Analyze(g, core.Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

const exprGrammar = `
grammar Expr;
s : ID
  | ID '=' e
  | ('unsigned')* 'int' ID
  | ('unsigned')* ID ID
  ;
e : INT ;
ID : ('a'..'z'|'A'..'Z')+ ;
INT : ('0'..'9')+ ;
WS : (' '|'\t'|'\r'|'\n')+ { skip(); } ;
`

func TestParseFigure1Inputs(t *testing.T) {
	res := analyzeSrc(t, exprGrammar)
	for _, tc := range []struct {
		input string
		tree  string
	}{
		{"x", "(s x)"},
		{"x = 42", "(s x = (e 42))"},
		{"int x", "(s int x)"},
		{"unsigned unsigned int x", "(s unsigned unsigned int x)"},
		{"T x", "(s T x)"},
		{"unsigned unsigned T x", "(s unsigned unsigned T x)"},
	} {
		p := New(res, Options{BuildTree: true})
		tree, err := p.ParseString("s", tc.input)
		if err != nil {
			t.Errorf("parse %q: %v", tc.input, err)
			continue
		}
		if got := tree.String(); got != tc.tree {
			t.Errorf("parse %q: tree %s, want %s", tc.input, got, tc.tree)
		}
	}
}

func TestParseErrors(t *testing.T) {
	res := analyzeSrc(t, exprGrammar)
	p := New(res, Options{})
	_, err := p.ParseString("s", "unsigned unsigned =")
	if err == nil {
		t.Fatal("expected syntax error")
	}
	se, ok := err.(*runtime.SyntaxError)
	if !ok {
		t.Fatalf("want *runtime.SyntaxError, got %T: %v", err, err)
	}
	// The offending token should be '=', not the first 'unsigned'
	// (Section 4.4: report at the token that killed the DFA path).
	if se.Offending.Text != "=" {
		t.Errorf("offending token %q, want %q (error: %v)", se.Offending.Text, "=", se)
	}
}

const backtrackGrammar = `
grammar BT;
options { backtrack=true; memoize=true; }
t : ('-')* ID
  | e
  ;
e : INT | '-' e ;
ID : ('a'..'z')+ ;
INT : ('0'..'9')+ ;
WS : (' ')+ { skip(); } ;
`

func TestBacktrackingParse(t *testing.T) {
	res := analyzeSrc(t, backtrackGrammar)
	for _, tc := range []struct {
		input string
		tree  string
	}{
		{"x", "(t x)"},
		{"5", "(t (e 5))"},
		{"- x", "(t - x)"},
		{"- 5", "(t (e - (e 5)))"},
		{"- - - x", "(t - - - x)"},
		{"- - - 5", "(t (e - (e - (e - (e 5)))))"},
	} {
		p, _ := newProfiled(res, Options{BuildTree: true})
		tree, err := p.ParseString("t", tc.input)
		if err != nil {
			t.Errorf("parse %q: %v", tc.input, err)
			continue
		}
		if got := tree.String(); got != tc.tree {
			t.Errorf("parse %q: tree %s, want %s", tc.input, got, tc.tree)
		}
	}
}

func TestBacktrackingStats(t *testing.T) {
	res := analyzeSrc(t, backtrackGrammar)
	p, st := newProfiled(res, Options{})
	if _, err := p.ParseString("t", "- - - - 5"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if st.TotalEvents() == 0 {
		t.Fatal("no decision events recorded")
	}
	if st.BacktrackEvents() == 0 {
		t.Errorf("expected backtracking events on deep '-' prefix; stats: %s", st)
	}
	if st.MaxK() < 2 {
		t.Errorf("expected lookahead beyond 1 token, got max k=%d", st.MaxK())
	}
	// Simple inputs need only the first token.
	p2, st2 := newProfiled(res, Options{})
	if _, err := p2.ParseString("t", "x"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := st2.BacktrackEvents(); got != 0 {
		t.Errorf("input x should not backtrack, got %d events", got)
	}
}

func TestMemoizationParity(t *testing.T) {
	res := analyzeSrc(t, backtrackGrammar)
	inputs := []string{"x", "- - x", "- - - - - 5", "5"}
	for _, in := range inputs {
		on, off := true, false
		pOn := New(res, Options{BuildTree: true, Memoize: &on})
		pOff := New(res, Options{BuildTree: true, Memoize: &off})
		tOn, errOn := pOn.ParseString("t", in)
		tOff, errOff := pOff.ParseString("t", in)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%q: memoization changed outcome: on=%v off=%v", in, errOn, errOff)
		}
		if errOn == nil && tOn.String() != tOff.String() {
			t.Errorf("%q: memoization changed tree: %s vs %s", in, tOn, tOff)
		}
	}
}

const predGrammar = `
grammar Preds;
s : t ';' ;
t : {isTypeName()}? ID ID
  | ID '=' INT
  ;
ID : ('a'..'z'|'A'..'Z')+ ;
INT : ('0'..'9')+ ;
WS : (' ')+ { skip(); } ;
`

func TestSemanticPredicateContextSensitive(t *testing.T) {
	res := analyzeSrc(t, predGrammar)
	typeNames := map[string]bool{"T": true}
	hooks := runtime.Hooks{
		Preds: map[string]func(*runtime.Context) bool{
			"isTypeName()": func(ctx *runtime.Context) bool {
				return typeNames[ctx.Stream.LT(1).Text]
			},
		},
	}
	p := New(res, Options{BuildTree: true, Hooks: hooks})
	tree, err := p.ParseString("s", "T x ;")
	if err != nil {
		t.Fatalf("T x: %v", err)
	}
	if !strings.Contains(tree.String(), "(t T x)") {
		t.Errorf("tree %s should contain declaration parse", tree)
	}
	p = New(res, Options{BuildTree: true, Hooks: hooks})
	tree, err = p.ParseString("s", "v = 3 ;")
	if err != nil {
		t.Fatalf("v = 3: %v", err)
	}
	if !strings.Contains(tree.String(), "(t v = 3)") {
		t.Errorf("tree %s should contain assignment parse", tree)
	}
}

const actionGrammar = `
grammar Act;
options { backtrack=true; }
s : a | b ;
a : X {regular()} {{always()}} Y ;
b : X {{always()}} Z ;
X : 'x' ;
Y : 'y' ;
Z : 'z' ;
WS : (' ')+ { skip(); } ;
`

// Mutators are deactivated during speculation; {{...}} actions run anyway
// (Section 4.3).
func TestActionGatingDuringSpeculation(t *testing.T) {
	res := analyzeSrc(t, actionGrammar)
	var regular, always int
	hooks := runtime.Hooks{
		Actions: map[string]func(*runtime.Context){
			"regular()": func(*runtime.Context) { regular++ },
			"always()":  func(*runtime.Context) { always++ },
		},
	}
	// Force the backtracking path: 'x z' must first speculate alternative
	// a (which fails at Y) and then match b.
	p := New(res, Options{Hooks: hooks})
	if _, err := p.ParseString("s", "x z"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if regular != 0 {
		t.Errorf("regular action ran %d times during/after failed speculation, want 0", regular)
	}
	if always == 0 {
		t.Errorf("always-exec action should have run during speculation")
	}
}

// The left-recursion rewrite (Section 1.1) plus the interpreter's native
// precedence predicates parse expressions with correct associativity and
// precedence.
func TestLeftRecursionRewriteParse(t *testing.T) {
	g, err := meta.Parse("e.g", `
grammar E;
e : e '*' e
  | e '+' e
  | INT
  ;
INT : ('0'..'9')+ ;
WS : (' ')+ { skip(); } ;
`)
	if err != nil {
		t.Fatalf("parse grammar: %v", err)
	}
	if err := grammar.RewriteLeftRecursion(g, "e"); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := grammar.FirstFatal(grammar.Validate(g)); err != nil {
		t.Fatalf("validate after rewrite: %v", err)
	}
	res, err := core.Analyze(g, core.Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	p := New(res, Options{BuildTree: true})
	tree, err := p.ParseString("e", "1 + 2 * 3 + 4")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s := tree.String()
	// Precedence: * binds tighter than +; the 2*3 product must sit whole
	// inside one e_ invocation consumed by the '+' level.
	if want := "(e (e_ 1 + (e_ 2 * (e_ 3)) + (e_ 4)))"; s != want {
		t.Errorf("tree %s, want %s", s, want)
	}
}

// EBNF loop parsing: greedy iteration and exit.
func TestLoopParse(t *testing.T) {
	res := analyzeSrc(t, `
grammar L;
s : (X)* Y (Z)+ ;
X : 'x' ;
Y : 'y' ;
Z : 'z' ;
WS : (' ')+ { skip(); } ;
`)
	p := New(res, Options{BuildTree: true})
	tree, err := p.ParseString("s", "x x x y z z")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := tree.String(); got != "(s x x x y z z)" {
		t.Errorf("tree %s", got)
	}
	p = New(res, Options{})
	if _, err := p.ParseString("s", "y"); err == nil {
		t.Errorf("(Z)+ requires at least one z")
	}
}

// Optional subrules.
func TestOptionalParse(t *testing.T) {
	res := analyzeSrc(t, `
grammar O;
s : (X)? Y ;
X : 'x' ;
Y : 'y' ;
`)
	for _, in := range []string{"xy", "y"} {
		p := New(res, Options{})
		if _, err := p.ParseString("s", in); err != nil {
			t.Errorf("parse %q: %v", in, err)
		}
	}
}

// Wildcard and negated token sets.
func TestWildcardAndNot(t *testing.T) {
	res := analyzeSrc(t, `
grammar W;
s : ~SEMI . SEMI ;
SEMI : ';' ;
A : 'a' ;
B : 'b' ;
`)
	p := New(res, Options{})
	if _, err := p.ParseString("s", "ab;"); err != nil {
		t.Errorf("parse ab;: %v", err)
	}
	p = New(res, Options{})
	if _, err := p.ParseString("s", ";b;"); err == nil {
		t.Errorf("~SEMI must reject ';'")
	}
}

// Incomplete input must be rejected (EOF required).
func TestRequireEOF(t *testing.T) {
	res := analyzeSrc(t, exprGrammar)
	p := New(res, Options{})
	if _, err := p.ParseString("s", "x = 42 junk"); err == nil {
		t.Errorf("trailing junk must be an error")
	}
}

func TestLexErrorSurfaces(t *testing.T) {
	res := analyzeSrc(t, exprGrammar)
	p := New(res, Options{})
	_, err := p.ParseString("s", "x = @")
	if err == nil {
		t.Fatal("expected error for unlexable '@'")
	}
}
