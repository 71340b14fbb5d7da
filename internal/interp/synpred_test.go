package interp

import (
	"testing"
)

// Explicit syntactic predicates drive prediction at runtime when
// lookahead alone cannot separate alternatives: a dotted target of
// arbitrary length followed by '=' is an assignment, otherwise a call —
// the VB.NET grammar's pattern.
const synpredGrammar = `
grammar SP;
s : (target '=')=> target '=' VAL
  | target
  ;
target : ID ('.' ID)* ;
ID : ('a'..'z')+ ;
VAL : ('0'..'9')+ ;
WS : (' ')+ { skip(); } ;
`

func TestExplicitSynPredAtRuntime(t *testing.T) {
	res := analyzeSrc(t, synpredGrammar)
	for _, tc := range []struct {
		input string
		want  string
	}{
		{"a . b . c = 5", "(s (target a . b . c) = 5)"},
		{"a . b . c", "(s (target a . b . c))"},
		{"x = 1", "(s (target x) = 1)"},
		{"x", "(s (target x))"},
	} {
		p, _ := newProfiled(res, Options{BuildTree: true})
		tree, err := p.ParseString("s", tc.input)
		if err != nil {
			t.Errorf("parse %q: %v", tc.input, err)
			continue
		}
		if got := tree.String(); got != tc.want {
			t.Errorf("parse %q: %s, want %s", tc.input, got, tc.want)
		}
	}
}

// v2 mode (linear approximate LL(k)) parses the same language, relying
// on ordered speculation where the approximation cannot decide.
func TestApproxLLKMode(t *testing.T) {
	res := analyzeSrc(t, `
grammar V2;
options { backtrack=true; memoize=true; }
s : A A B | A A C | (A)* D ;
A : 'a' ;
B : 'b' ;
C : 'c' ;
D : 'd' ;
WS : (' ')+ { skip(); } ;
`)
	for _, tc := range []struct {
		input string
		ok    bool
	}{
		{"a a b", true},
		{"a a c", true},
		{"a a a a d", true},
		{"d", true},
		{"a a", false},
		{"b", false},
	} {
		for _, k := range []int{1, 2} {
			p, _ := newProfiled(res, Options{ApproxK: k})
			_, err := p.ParseString("s", tc.input)
			if (err == nil) != tc.ok {
				t.Errorf("k=%d input %q: err=%v, want ok=%v", k, tc.input, err, tc.ok)
			}
		}
	}
	// The approximation must speculate more than LL(*) on this grammar.
	p, v2 := newProfiled(res, Options{ApproxK: 1})
	if _, err := p.ParseString("s", "a a c"); err != nil {
		t.Fatal(err)
	}
	v2Specs := v2.BacktrackEvents()
	pStar, star := newProfiled(res, Options{})
	if _, err := pStar.ParseString("s", "a a c"); err != nil {
		t.Fatal(err)
	}
	if starSpecs := star.BacktrackEvents(); v2Specs <= starSpecs {
		t.Errorf("v2 should speculate more: v2=%d ll(*)=%d", v2Specs, starSpecs)
	}
}
