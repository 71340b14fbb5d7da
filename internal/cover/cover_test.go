package cover

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llstar/internal/runtime"
)

// failedIf returns a parse error when failed.
func failedIf(failed bool) error {
	if failed {
		return errors.New("parse failed")
	}
	return nil
}

func testMeta() Meta {
	return Meta{
		Grammar: "test",
		Decisions: []DecisionMeta{
			{ID: 0, Rule: "expr", Desc: "expr alts", Class: "fixed", NAlts: 2, DFAStates: 3},
			{ID: 1, Rule: "stat", Desc: "stat alts", Class: "cyclic", NAlts: 3, DFAStates: 4},
			{ID: 2, Rule: "decl", Desc: "decl alts", Class: "backtrack", NAlts: 2, DFAStates: 0},
		},
		Rules: []string{"expr", "stat", "decl"},
	}
}

// testShape lays out a parser's counter block like testMeta.
func testShape() *runtime.Shape {
	return &runtime.Shape{Decisions: []runtime.DecisionShape{
		{Class: runtime.ThrottleFixed, NAlts: 2, DFAStates: 3},
		{Class: runtime.ThrottleCyclic, NAlts: 3, DFAStates: 4},
		{Class: runtime.ThrottleBacktrack, NAlts: 2, DFAStates: 0},
	}, Rules: 3}
}

// recorder is a parser's counter block, shaped like testMeta and
// merging each parse into a profile, with a parse begun.
type recorder struct{ *runtime.ParseStats }

func newRecorder(p *Profile) recorder {
	r := recorder{runtime.NewParseStats(testShape())}
	r.OnEnd(p.AddParse)
	r.BeginParse(false)
	return r
}

// Prediction feeds one prediction event.
func (r recorder) Prediction(dec, alt, k int, backtracked, failed bool) {
	r.Predict(runtime.Prediction{Decision: dec, Alt: alt, K: k, Backtracked: backtracked, Failed: failed})
}

// flush ends the parse as a fragment reparse, which merges its events
// but counts no parse.
func (r recorder) flush() { r.EndParse(runtime.ParseEnd{Fragment: true}) }

// TestRecorderFlushSnapshot drives a parser's counter block with every
// event it counts and checks what one finished parse merges into the
// profile.
func TestRecorderFlushSnapshot(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRecorder(p)

	r.Prediction(0, 1, 1, false, false) // LL(1)
	r.Prediction(0, 2, 3, false, false) // LL(k)
	r.Prediction(1, 2, 5, false, false) // cyclic class
	r.Prediction(2, 1, 2, true, false)  // backtracked
	r.Prediction(2, 0, 2, true, true)   // failed
	r.DFAState(0, 0, false)
	r.DFAState(0, 2, false)
	r.DFAState(0, -1, true)
	r.DFAState(0, -1, true)
	r.Speculate(runtime.Speculation{Decision: 2, Tokens: 10, Depth: 1, OK: false})
	r.Speculate(runtime.Speculation{Decision: 2, Tokens: 4, Depth: 2, OK: true})
	r.Resync(1, "", 3, true)
	r.EnterRule(0, "", 0)
	r.EnterRule(0, "", 0)
	r.EnterRule(2, "", 0)
	r.Memo(2, "", 0, 1, true, false)
	r.Memo(2, "", 0, 1, false, false)
	r.EndParse(runtime.ParseEnd{Tokens: 42})

	s := p.Snapshot()
	if s.Parses != 1 || s.Tokens != 42 || s.ParseErrors != 0 {
		t.Fatalf("parse totals: %+v", s)
	}
	d0 := s.Decisions[0]
	if d0.Predictions != 2 || d0.Strategy[runtime.StratLL1] != 1 || d0.Strategy[runtime.StratLLk] != 1 {
		t.Fatalf("d0 strategies: %+v", d0)
	}
	if d0.MaxK != 3 || d0.EdgesTaken != 2 || d0.StatesCovered() != 2 || d0.AltsCovered() != 2 {
		t.Fatalf("d0 detail: %+v", d0)
	}
	d1 := s.Decisions[1]
	if d1.Strategy[runtime.StratCyclic] != 1 || d1.Resyncs != 1 || d1.ResyncTokens != 3 {
		t.Fatalf("d1: %+v", d1)
	}
	d2 := s.Decisions[2]
	if d2.Strategy[runtime.StratBacktrack] != 2 || d2.Errors != 1 {
		t.Fatalf("d2 strategies: %+v", d2)
	}
	if d2.SpecEvents != 2 || d2.SpecTokens != 14 || d2.WastedSpecEvents != 1 || d2.WastedSpecTokens != 10 || d2.MaxSpecDepth != 2 {
		t.Fatalf("d2 speculation: %+v", d2)
	}
	if d2.AltsCovered() != 1 {
		t.Fatalf("d2 alts (failed prediction must not count an alt): %+v", d2.Alts)
	}
	if s.Rules[0].Invocations != 2 || s.Rules[2].MemoHits != 1 || s.Rules[2].MemoMisses != 1 {
		t.Fatalf("rules: %+v", s.Rules)
	}

	// The next parse starts the block over: an empty fragment reparse
	// adds nothing.
	r.BeginParse(true)
	r.flush()
	if s2 := p.Snapshot(); !reflect.DeepEqual(s, s2) {
		t.Fatalf("an empty parse changed the profile:\n%+v\n%+v", s, s2)
	}
}

func TestStrategyCountsSumToPredictions(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRecorder(p)
	for i := 0; i < 100; i++ {
		r.Prediction(i%3, 1+i%2, 1+i%4, i%5 == 0, i%7 == 0)
	}
	r.flush()
	s := p.Snapshot()
	for i, d := range s.Decisions {
		var sum int64
		for _, n := range d.Strategy {
			sum += n
		}
		if sum != d.Predictions {
			t.Fatalf("decision %d: strategy sum %d != predictions %d", i, sum, d.Predictions)
		}
	}
}

// TestMergeEqualsSum verifies the acceptance property driving the
// design: merging many parsers' blocks concurrently into one profile
// yields exactly the element-wise sum of the individual contributions.
func TestMergeEqualsSum(t *testing.T) {
	merged := NewProfile(testMeta())
	var parts []*Snapshot
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			solo := NewProfile(testMeta())
			for _, p := range []*Profile{merged, solo} {
				r := newRecorder(p)
				for i := 0; i < 50+w; i++ {
					dec := (i + w) % 3
					r.Prediction(dec, 1+i%2, 1+(i+w)%5, dec == 2, false)
					r.DFAState(dec, i%4, false)
					r.DFAState(dec, -1, true)
					if dec == 2 {
						r.Speculate(runtime.Speculation{Decision: dec, Tokens: i % 9, Depth: 1, OK: i%2 == 0})
					}
					r.EnterRule(dec, "", 0)
					r.Memo(dec, "", 0, 1, i%3 == 0, false)
				}
				r.EndParse(runtime.ParseEnd{Tokens: 100 + w, Err: failedIf(w%2 == 0)})
			}
			mu.Lock()
			parts = append(parts, solo.Snapshot())
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	sum := NewProfile(testMeta())
	for _, s := range parts {
		sum.Merge(s)
	}
	a, b := merged.Snapshot(), sum.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merged profile != sum of per-parse profiles\nmerged: %+v\nsum:    %+v", a, b)
	}
}

func TestResetClearsCountersKeepsShape(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRecorder(p)
	r.Prediction(0, 1, 1, false, false)
	r.DFAState(1, 2, false)
	r.EndParse(runtime.ParseEnd{Tokens: 5, Err: failedIf(true)})
	p.Reset()
	s := p.Snapshot()
	if s.Parses != 0 || s.ParseErrors != 0 || s.Tokens != 0 {
		t.Fatalf("reset totals: %+v", s)
	}
	for i, d := range s.Decisions {
		if d.Predictions != 0 || d.StatesCovered() != 0 || d.AltsCovered() != 0 {
			t.Fatalf("decision %d not cleared: %+v", i, d)
		}
		if len(d.Alts) != testMeta().Decisions[i].NAlts {
			t.Fatalf("decision %d lost alt shape", i)
		}
	}
}

func TestOutOfRangeEventsIgnored(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRecorder(p)
	r.Prediction(-1, 1, 1, false, false)
	r.Prediction(99, 1, 1, false, false)
	r.Prediction(0, 99, 1, false, false) // alt out of range: counted, alt dropped
	r.DFAState(0, 99, false)
	r.DFAState(99, 0, false)
	r.DFAState(-5, -1, true)
	r.Speculate(runtime.Speculation{Decision: 42, Tokens: 3, Depth: 1, OK: false})
	r.Resync(-1, "", 2, true)
	r.EnterRule(99, "", 0)
	r.Memo(-1, "", 0, 1, true, false)
	r.flush()
	s := p.Snapshot()
	if s.Decisions[0].Predictions != 1 || s.Decisions[0].AltsCovered() != 0 {
		t.Fatalf("out-of-range alt handling: %+v", s.Decisions[0])
	}
	if s.Decisions[0].StatesCovered() != 0 {
		t.Fatalf("out-of-range state recorded")
	}
}

func TestReportAndHotspots(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRecorder(p)
	r.Prediction(0, 1, 1, false, false)
	r.DFAState(0, 0, false)
	r.Prediction(2, 1, 3, true, false)
	r.Speculate(runtime.Speculation{Decision: 2, Tokens: 81, Depth: 1, OK: false})
	r.Speculate(runtime.Speculation{Decision: 2, Tokens: 19, Depth: 1, OK: true})
	r.EnterRule(0, "", 0)
	r.EnterRule(2, "", 0)
	r.EndParse(runtime.ParseEnd{Tokens: 100})
	s := p.Snapshot()

	var rep bytes.Buffer
	if err := s.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{
		"grammar coverage: test",
		"rules      2/3",
		"rules never invoked (1):",
		"stat",                            // the uncovered rule
		"decisions never exercised (1):",  // d1 untouched
		"alternatives never chosen:",      // d0 alt 2, d2 alt 2
		"DFA states never visited:",       // d0 visited 1 of 3
		"backtrack            1 (50.00%)", // strategy split
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	hs := s.Hotspots()
	if len(hs) != 2 {
		t.Fatalf("want 2 exercised decisions, got %d", len(hs))
	}
	if hs[0].Meta.ID != 2 {
		t.Fatalf("hottest should be d2 (wasted tokens), got d%d", hs[0].Meta.ID)
	}
	if hs[0].WastedShare != 1.0 {
		t.Fatalf("d2 wasted share: %v", hs[0].WastedShare)
	}

	var hot bytes.Buffer
	if err := s.WriteHotspots(&hot, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hot.String(), "hottest: decision 2 in decl caused 100% of wasted speculation tokens (81 of 81)") {
		t.Errorf("hotspot headline missing:\n%s", hot.String())
	}

	var html bytes.Buffer
	if err := s.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	h := html.String()
	for _, want := range []string{"<!DOCTYPE html>", "Grammar coverage", "decl", "wasted spec tokens", "Rules never invoked"} {
		if !strings.Contains(h, want) {
			t.Errorf("html missing %q", want)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRecorder(p)
	r.Prediction(0, 1, 2, false, false)
	r.EndParse(runtime.ParseEnd{Tokens: 7})
	s := p.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Meta.Grammar != "test" || back.Parses != 1 || back.Decisions[0].Predictions != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	// A merged round-tripped snapshot behaves like the original.
	p2 := NewProfile(testMeta())
	p2.Merge(&back)
	if got := p2.Snapshot(); !reflect.DeepEqual(got.Decisions, s.Decisions) {
		t.Fatalf("merge of unmarshaled snapshot differs")
	}
}
