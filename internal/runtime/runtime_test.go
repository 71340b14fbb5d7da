package runtime

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"llstar/internal/token"
)

func toks(types ...token.Type) []token.Token {
	out := make([]token.Token, len(types))
	for i, t := range types {
		out[i] = token.Token{Type: t, Text: "t", Pos: token.Pos{Line: 1, Col: i + 1}}
	}
	return out
}

func TestTokenStreamBasics(t *testing.T) {
	s := NewTokenStream(&SliceSource{Tokens: toks(1, 2, 3)})
	if s.LA(1) != 1 || s.LA(2) != 2 || s.LA(4) != token.EOF || s.LA(99) != token.EOF {
		t.Fatalf("lookahead wrong")
	}
	s.Consume()
	if s.LA(1) != 2 || s.Index() != 1 {
		t.Fatalf("consume wrong")
	}
	s.Seek(0)
	if s.LA(1) != 1 {
		t.Fatalf("seek wrong")
	}
	// Consuming past EOF is a no-op.
	for i := 0; i < 10; i++ {
		s.Consume()
	}
	if s.LA(1) != token.EOF {
		t.Fatalf("must stick at EOF")
	}
}

func TestTokenStreamWatermark(t *testing.T) {
	s := NewTokenStream(&SliceSource{Tokens: toks(1, 2, 3, 4, 5)})
	s.WatermarkReset()
	s.LA(3)
	if s.Watermark() != 2 {
		t.Fatalf("watermark = %d, want 2", s.Watermark())
	}
	prev := s.WatermarkReset()
	if prev != 2 || s.Watermark() != -1 {
		t.Fatalf("reset: prev=%d cur=%d", prev, s.Watermark())
	}
	s.ExtendWatermark(7)
	if s.Watermark() != 7 {
		t.Fatalf("extend failed")
	}
}

// Property: any interleaving of Consume/Seek/LA agrees with a reference
// implementation over the same token slice.
func TestTokenStreamMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		types := make([]token.Type, n)
		for i := range types {
			types[i] = token.Type(1 + r.Intn(5))
		}
		s := NewTokenStream(&SliceSource{Tokens: toks(types...)})
		pos := 0
		la := func(i int) token.Type {
			idx := pos + i - 1
			if idx >= len(types) {
				return token.EOF
			}
			return types[idx]
		}
		for step := 0; step < 60; step++ {
			switch r.Intn(3) {
			case 0:
				k := 1 + r.Intn(4)
				if s.LA(k) != la(k) {
					return false
				}
			case 1:
				s.Consume()
				if pos < len(types) {
					pos++
				}
			case 2:
				target := r.Intn(n + 2)
				s.Seek(target)
				pos = target
				if pos > len(types) {
					pos = len(types)
				}
			}
			if s.LA(1) != la(1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMemoTable(t *testing.T) {
	m := NewMemoTable(3)
	if _, ok := m.Get(1, 5); ok {
		t.Fatal("unexpected hit")
	}
	m.Put(1, 5, 9)
	if stop, ok := m.Get(1, 5); !ok || stop != 9 {
		t.Fatalf("get: %d %v", stop, ok)
	}
	m.Put(2, 0, MemoFailed)
	if stop, ok := m.Get(2, 0); !ok || stop != MemoFailed {
		t.Fatalf("failed entry: %d %v", stop, ok)
	}
	if m.Entries() != 2 {
		t.Fatalf("entries = %d", m.Entries())
	}
	if m.Hits() != 2 || m.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", m.Hits(), m.Misses())
	}
	if m.Stores() != 2 {
		t.Fatalf("stores = %d, want 2", m.Stores())
	}
	// Overwriting an entry counts as a store but not a new entry.
	m.Put(1, 5, 11)
	if m.Stores() != 3 || m.Entries() != 2 {
		t.Fatalf("after overwrite: stores=%d entries=%d", m.Stores(), m.Entries())
	}
	// Out-of-range rows must not panic.
	m.Put(99, 0, 1)
	if _, ok := m.Get(99, 0); ok {
		t.Fatal("out-of-range row hit")
	}
	var nilTable *MemoTable
	if nilTable.Entries() != 0 {
		t.Fatal("nil table entries")
	}
}

func TestParseStatsStringMemo(t *testing.T) {
	ps := NewParseStats(&Shape{Decisions: make([]DecisionShape, 1)})
	ps.Record(0, 1, false, 0)
	ps.MemoEntries = 4
	ps.MemoHits = 3
	ps.MemoMisses = 1
	ps.MemoStores = 5
	s := ps.String()
	for _, want := range []string{"memo=4", "hits=3", "misses=1", "stores=5", "hit-ratio=75.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	if got := ps.MemoHitRatio(); got != 0.75 {
		t.Errorf("MemoHitRatio = %v", got)
	}
	// No lookups at all: the ratio is 0, not NaN, and String stays terse.
	empty := NewParseStats(&Shape{Decisions: make([]DecisionShape, 1)})
	if got := empty.MemoHitRatio(); got != 0 {
		t.Errorf("empty ratio = %v", got)
	}
	if s := empty.String(); strings.Contains(s, "NaN") {
		t.Errorf("String() leaks NaN: %s", s)
	}
}

func TestParseStatsAggregation(t *testing.T) {
	ps := NewParseStats(&Shape{Decisions: []DecisionShape{{}, {Class: ThrottleBacktrack}, {}}})
	ps.Record(0, 1, false, 0)
	ps.Record(0, 3, false, 0)
	ps.Record(1, 5, true, 5)
	ps.Record(1, 1, false, 0)
	ps.Record(-1, 9, false, 0) // ignored
	ps.Record(99, 9, false, 0) // ignored

	if ps.TotalEvents() != 4 {
		t.Errorf("events = %d", ps.TotalEvents())
	}
	if ps.DecisionsCovered() != 2 {
		t.Errorf("covered = %d", ps.DecisionsCovered())
	}
	if got := ps.AvgK(); got != 2.5 {
		t.Errorf("avgK = %v", got)
	}
	if ps.MaxK() != 5 {
		t.Errorf("maxK = %d", ps.MaxK())
	}
	if ps.BacktrackEvents() != 1 {
		t.Errorf("backs = %d", ps.BacktrackEvents())
	}
	if got := ps.BacktrackRatio(); got != 0.25 {
		t.Errorf("ratio = %v", got)
	}
	if got := ps.AvgBacktrackK(); got != 5 {
		t.Errorf("backK = %v", got)
	}
	if ps.CanBacktrackCount() != 1 || ps.DidBacktrackCount() != 1 {
		t.Errorf("can/did = %d/%d", ps.CanBacktrackCount(), ps.DidBacktrackCount())
	}
	if got := ps.BacktrackTriggerRate(); got != 0.5 {
		t.Errorf("trigger rate = %v", got)
	}
	if ps.String() == "" {
		t.Error("empty String")
	}
}

// TestParseStatsBlock drives the counter block through the probe: what
// each event counts for its decision, its rule and the whole parse,
// that a full parse copies its memo totals and a fragment does not,
// that every OnEnd function reads the block, and that the next parse
// starts it over with its shape and backtrack marks intact.
func TestParseStatsBlock(t *testing.T) {
	ps := NewParseStats(&Shape{Decisions: []DecisionShape{
		{Class: ThrottleFixed, NAlts: 2, DFAStates: 3},
		{Class: ThrottleCyclic, NAlts: 2, DFAStates: 2},
		{Class: ThrottleBacktrack, NAlts: 3},
	}, Rules: 2})
	var ends []ParseEnd
	ps.OnEnd(func(got *ParseStats, e ParseEnd) {
		if got != ps {
			t.Error("OnEnd got another block")
		}
		ends = append(ends, e)
	})
	var p Probe = ps
	p.BeginParse(false)
	p.DFAState(0, 0, false)
	p.DFAState(0, 2, true)
	p.Predict(Prediction{Decision: 0, Alt: 2, K: 2})
	p.Predict(Prediction{Decision: 1, Alt: 1, K: 1})
	p.Predict(Prediction{Decision: 2, Alt: 3, K: 9, Backtracked: true})
	p.Predict(Prediction{Decision: 2, K: 1, Failed: true})
	p.Speculate(Speculation{Decision: 2, SynPred: -1, Alt: 3, Tokens: 9, Depth: 1, OK: true})
	p.Speculate(Speculation{Decision: 2, SynPred: 0, Tokens: 3, Depth: 2})
	p.SemPred("r", "p", 0, true, nil)
	p.SemPred("r", "p", 0, false, nil)
	p.SemPred("r", "p", 0, false, errors.New("unbound"))
	p.EnterRule(1, "r", 0)
	p.Memo(1, "r", 0, 1, true, true)
	p.Memo(1, "r", 4, 1, false, false)
	p.SyntaxError(&SyntaxError{})
	p.Resync(0, "r", 2, true)
	memo := NewMemoTable(1)
	memo.Put(0, 0, 1)
	memo.Get(0, 0)
	p.EndParse(ParseEnd{Tokens: 5, Memo: memo})

	d0, d1, d2 := ps.Decisions[0], ps.Decisions[1], ps.Decisions[2]
	if d0.Strategy[StratLLk] != 1 || d0.Alts[1] != 1 || d0.Depth[1] != 1 || d0.EdgesTaken != 1 ||
		!d0.StatesVisited[0] || d0.StatesVisited[1] || !d0.StatesVisited[2] || d0.Resyncs != 1 || d0.ResyncTokens != 2 {
		t.Errorf("decision 0: %+v", d0)
	}
	if d1.Strategy[StratCyclic] != 1 || d1.Depth[0] != 1 {
		t.Errorf("decision 1: %+v", d1)
	}
	if d2.Events != 2 || d2.Strategy[StratBacktrack] != 1 || d2.Strategy[StratLL1] != 1 || d2.Failed != 1 ||
		d2.Alts[2] != 1 || d2.Depth[4] != 1 || d2.BacktrackEvents != 1 || d2.SumBacktrackK != 9 || !d2.CanBacktrack {
		t.Errorf("decision 2 predictions: %+v", d2)
	}
	if d2.SpecEvents != 2 || d2.SpecTokens != 12 || d2.WastedSpecEvents != 1 || d2.WastedSpecTokens != 3 || d2.MaxSpecDepth != 2 {
		t.Errorf("decision 2 speculations: %+v", d2)
	}
	if r := ps.Rules[1]; r.Invocations != 1 || r.MemoHits != 1 || r.MemoMisses != 1 {
		t.Errorf("rule 1: %+v", r)
	}
	if ps.SpecMatches != 1 || ps.SpecFailures != 1 || ps.SynPredMatches != 0 || ps.SynPredFailures != 1 {
		t.Errorf("speculations: %d/%d, synpreds %d/%d", ps.SpecMatches, ps.SpecFailures, ps.SynPredMatches, ps.SynPredFailures)
	}
	if ps.SemPredTrue != 1 || ps.SemPredFalse != 1 || ps.SemPredErrors != 1 || ps.SyntaxErrors != 1 || ps.Resyncs != 1 {
		t.Errorf("predicates and errors: %+v", ps)
	}
	if h := ps.SpecDepth; h.N != 2 || h.Sum != 12 || h.Max != 9 || h.Buckets[2] != 1 || h.Buckets[4] != 1 {
		t.Errorf("speculation depth: %+v", h)
	}
	if ps.MemoEntries != 1 || ps.MemoHits != 1 || ps.MemoStores != 1 || len(ends) != 1 || ends[0].Tokens != 5 {
		t.Errorf("memo totals %d/%d/%d, ends %v", ps.MemoEntries, ps.MemoHits, ps.MemoStores, ends)
	}

	// Out-of-range events count for the parse and nowhere else.
	p.BeginParse(true)
	p.Predict(Prediction{Decision: 3, K: 1})
	p.DFAState(-1, 0, true)
	p.DFAState(0, 3, false)
	p.Predict(Prediction{Decision: 0, Alt: 3, K: 1})
	p.Speculate(Speculation{Decision: -1, SynPred: -1, Tokens: 1})
	p.Resync(7, "r", 1, false)
	p.EnterRule(2, "r", 0)
	p.Memo(-1, "r", 0, 1, true, true)
	p.EndParse(ParseEnd{Fragment: true, Memo: memo})
	if ps.TotalEvents() != 1 || ps.Decisions[0].Alts[0]+ps.Decisions[0].Alts[1] != 0 || ps.Decisions[0].StatesVisited[0] ||
		ps.SpecFailures != 1 || ps.Resyncs != 1 || ps.Rules[0] != (RuleStats{}) || ps.Rules[1] != (RuleStats{}) {
		t.Errorf("out-of-range events: %+v", ps)
	}
	if ps.MemoEntries != 0 || ps.MemoHits != 0 || len(ends) != 2 {
		t.Errorf("a fragment copied memo totals %d/%d", ps.MemoEntries, ps.MemoHits)
	}
	if !ps.Decisions[2].CanBacktrack || len(ps.Decisions[2].Alts) != 3 || len(ps.Decisions[0].StatesVisited) != 3 {
		t.Error("Reset lost the block's shape")
	}
}

func TestHooksEvalPred(t *testing.T) {
	var h Hooks
	ctx := &Context{Arg: 3}
	for _, tc := range []struct {
		text string
		want bool
	}{
		{"p <= 3", true},
		{"p <= 2", false},
		{"p < 4", true},
		{"p >= 3", true},
		{"p > 3", false},
		{"p == 3", true},
		{"p != 3", false},
	} {
		got, err := h.EvalPred(tc.text, ctx)
		if err != nil {
			t.Errorf("%q: %v", tc.text, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q with arg 3: got %v", tc.text, got)
		}
	}
	// Unbound predicate errors.
	if _, err := h.EvalPred("isFoo()", ctx); err == nil {
		t.Error("unbound predicate must error")
	}
	// Bound predicate dispatches.
	h.Preds = map[string]func(*Context) bool{"isFoo()": func(*Context) bool { return true }}
	if ok, err := h.EvalPred("isFoo()", ctx); err != nil || !ok {
		t.Errorf("bound predicate: %v %v", ok, err)
	}
	// A non-nil Preds map that lacks the key still errors, naming the
	// predicate text.
	if _, err := h.EvalPred("isBar()", ctx); err == nil || !strings.Contains(err.Error(), "isBar()") {
		t.Errorf("missing-key predicate: %v", err)
	}
	// Bound-predicate text is trimmed before lookup.
	if ok, err := h.EvalPred("  isFoo()  ", ctx); err != nil || !ok {
		t.Errorf("trimmed predicate: %v %v", ok, err)
	}
}

func TestEvalArgComparisonMalformed(t *testing.T) {
	// None of these have the "<ident> OP <int>" shape; they must fall
	// through to Hooks.Preds (matched=false), not silently evaluate.
	for _, text := range []string{
		"p ?? 3",   // unknown operator
		"1 <= 3",   // literal lhs, not an identifier
		"p <= x",   // non-integer rhs
		"p <=",     // two fields
		"p",        // one field
		"p <= 3 4", // four fields
		"",         // empty
	} {
		if _, matched := evalArgComparison(text, 3); matched {
			t.Errorf("%q must not match as an arg comparison", text)
		}
	}
	// And EvalPred therefore reports them unbound.
	var h Hooks
	if _, err := h.EvalPred("1 <= 3", &Context{Arg: 3}); err == nil {
		t.Error("malformed comparison must be treated as unbound")
	}
}

func TestEvalRuleArg(t *testing.T) {
	for _, tc := range []struct {
		text   string
		caller int
		want   int
		err    bool
	}{
		{"", 7, 0, false},
		{"3", 7, 3, false},
		{"p", 7, 7, false},
		{"p + 1", 7, 8, false},
		{"p - 2", 7, 5, false},
		{"p+1", 7, 8, false}, // spacing is optional
		{"p-2", 7, 5, false},
		{"  p + 1  ", 7, 8, false},
		{"p * 2", 7, 0, true},
		{"wat?", 7, 0, true},
		{"p +", 7, 0, true},   // missing rhs
		{"+ 3", 7, 0, true},   // missing lhs (operator at index 0)
		{"2 + 2", 7, 0, true}, // lhs is not an identifier
		{"p + q", 7, 0, true}, // rhs is not an integer
	} {
		got, err := EvalRuleArg(tc.text, tc.caller)
		if (err != nil) != tc.err {
			t.Errorf("%q: err=%v", tc.text, err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%q: got %d want %d", tc.text, got, tc.want)
		}
	}
}

func TestSyntaxErrorFormat(t *testing.T) {
	e := &SyntaxError{
		Offending: token.Token{Text: "x", Pos: token.Pos{Line: 2, Col: 5}},
		Rule:      "expr",
		Msg:       "no viable alternative",
	}
	want := `2:5: rule expr: no viable alternative at "x"`
	if e.Error() != want {
		t.Errorf("got %q want %q", e.Error(), want)
	}
	eofErr := &SyntaxError{Offending: token.Token{Type: token.EOF}, Msg: "m"}
	if got := eofErr.Error(); got != `0:0: m at "<EOF>"` {
		t.Errorf("eof error: %q", got)
	}
}
