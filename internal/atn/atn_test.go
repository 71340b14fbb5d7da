package atn

import (
	"strings"
	"sync"
	"testing"

	"llstar/internal/grammar"
	"llstar/internal/meta"
)

func build(t *testing.T, src string) *Machine {
	t.Helper()
	g, err := meta.Parse("t.g", src)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	if err := grammar.FirstFatal(grammar.Validate(g)); err != nil {
		t.Fatalf("validate: %v", err)
	}
	m, err := Build(g)
	if err != nil {
		t.Fatalf("atn: %v", err)
	}
	return m
}

// Every non-decision state must have at most one outgoing transition —
// the invariant the interpreter's walk relies on.
func TestSingleTransitionInvariant(t *testing.T) {
	m := build(t, `
grammar I;
s : a (B)* (C)? (a | B)+ ;
a : {p()}? B C {act();} | ;
B : 'b' ;
C : 'c' ;
`)
	for _, s := range m.States {
		if s.DecisionID >= 0 {
			continue
		}
		if len(s.Trans) > 1 {
			t.Errorf("non-decision state %s has %d transitions", s, len(s.Trans))
		}
	}
}

func TestDecisionBookkeeping(t *testing.T) {
	m := build(t, `
grammar D;
s : A | B ;
t : (A)* ;
u : (A)? ;
v : (A)+ ;
w : A ;
A : 'a' ;
B : 'b' ;
`)
	if len(m.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(m.Decisions))
	}
	byKind := map[DecisionKind]int{}
	for _, d := range m.Decisions {
		byKind[d.Kind]++
		if d.State.DecisionID != d.ID {
			t.Errorf("decision state back-pointer wrong for %d", d.ID)
		}
		if len(d.AltStart) != d.NAlts {
			t.Errorf("alt starts mismatch for %d", d.ID)
		}
		if d.End == nil {
			t.Errorf("decision %d has no End", d.ID)
		}
	}
	// s: rule decision; t: loop; u: optional; v: (A)+ → loop only
	// (single-alt body needs no once-decision).
	if byKind[RuleDecision] != 1 || byKind[LoopDecision] != 2 || byKind[OptionalDecision] != 1 {
		t.Errorf("kinds: %v", byKind)
	}
	if m.RuleDecisionID["s"] < 0 {
		t.Errorf("rule decision id missing")
	}
}

func TestLoopExitNumbering(t *testing.T) {
	m := build(t, `
grammar L;
s : (A | B)* C ;
A : 'a' ;
B : 'b' ;
C : 'c' ;
`)
	d := m.Decisions[0]
	if d.Kind != LoopDecision || d.NAlts != 3 {
		t.Fatalf("loop shape: kind=%v nalts=%d", d.Kind, d.NAlts)
	}
	if !d.HasExitAlt() {
		t.Error("loop must have exit alt")
	}
	// Decision state's epsilon edges are in alternative order: two
	// bodies then the exit.
	if len(d.State.Trans) != 3 {
		t.Fatalf("decision edges: %d", len(d.State.Trans))
	}
}

func TestFollowRefs(t *testing.T) {
	m := build(t, `
grammar F;
s : a a ;
a : A ;
A : 'a' ;
`)
	aIdx := m.RuleIndexByName("a")
	if got := len(m.FollowRefs[aIdx]); got != 2 {
		t.Errorf("follow refs for a = %d, want 2", got)
	}
	if m.RuleIndexByName("A") != -1 || m.RuleIndexByName("nope") != -1 {
		t.Errorf("rule index lookup must reject lexer/unknown rules")
	}
}

func TestSynPredCompilation(t *testing.T) {
	m := build(t, `
grammar S;
s : (A B)=> A B | A C ;
A : 'a' ;
B : 'b' ;
C : 'c' ;
`)
	if len(m.SynPreds) != 1 {
		t.Fatalf("synpreds = %d", len(m.SynPreds))
	}
	def := m.SynPreds[0]
	if def.Start == nil || def.Stop == nil || !def.Stop.Stop {
		t.Errorf("synpred fragment malformed")
	}
	if def.Block == nil {
		t.Errorf("synpred lost its IR block")
	}
	d := m.Decisions[m.RuleDecisionID["s"]]
	if d.SynPreds[0] != 0 || d.SynPreds[1] != -1 {
		t.Errorf("synpred hoisting: %v", d.SynPreds)
	}
	if !d.Backtrack {
		t.Errorf("explicit synpred decision must allow backtracking")
	}
}

func TestTransMatches(t *testing.T) {
	tr := &Trans{Kind: TAtom, Sym: 5}
	if !tr.Matches(5) || tr.Matches(6) {
		t.Error("atom match")
	}
	wild := &Trans{Kind: TWildcard}
	if !wild.Matches(1) || wild.Matches(-1) {
		t.Error("wildcard must not match EOF")
	}
	if !(&Trans{Kind: TChar, Lo: 'a', Hi: 'z'}).MatchesRune('m') {
		t.Error("char range")
	}
	cs := &Trans{Kind: TCharSet, CharRanges: []grammar.RuneRange{{Lo: '0', Hi: '9'}}, Negated: true}
	if cs.MatchesRune('5') || !cs.MatchesRune('x') || cs.MatchesRune(-1) {
		t.Error("negated charset")
	}
}

func TestDotExport(t *testing.T) {
	m := build(t, `
grammar G;
s : A | B ;
A : 'a' ;
B : 'b' ;
`)
	out := m.Dot("s")
	if !strings.Contains(out, "digraph ATN") || !strings.Contains(out, "d0") {
		t.Errorf("dot output: %s", out)
	}
}

// TestLexDFALazyShared: Build leaves the lexer DFA unbuilt, and racing
// first DFA calls build it once and all get the same tables.
func TestLexDFALazyShared(t *testing.T) {
	m := build(t, `
grammar L;
s : ID ;
ID : ('a'..'z')+ ;
WS : (' ')+ { skip(); } ;
`)
	if m.Lex.dfa != nil || m.Lex.dfaErr != nil {
		t.Fatal("Build determinized the lexer")
	}
	got := make([]*LexDFA, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := m.Lex.DFA()
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d == nil || d != got[0] {
			t.Fatalf("DFA call %d returned %p, call 0 %p", i, d, got[0])
		}
	}
}
