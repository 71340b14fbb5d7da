package llstar_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"llstar"
)

// fig2Src follows the Section 2 mixed shape: decision t throttles to
// backtracking (recursion in both alternatives defeats static analysis
// at m=1), and the common e prefix exercises speculation with packrat
// memoization — rule e is re-parsed at the same position when alt 1's
// speculation fails past it.
const fig2Src = `
grammar Fig2;
options { backtrack=true; memoize=true; }
t : e ';'
  | e '!'
  ;
e : INT | '-' e ;
INT : ('0'..'9')+ ;
WS : (' ')+ { skip(); } ;
`

// TestTracedParseJSONL drives a full load+parse with a JSONL tracer and
// metrics and checks that both phases emit the expected events.
func TestTracedParseJSONL(t *testing.T) {
	var buf bytes.Buffer
	tracer := llstar.NewJSONLTracer(&buf)
	reg := llstar.NewMetrics()
	g, err := llstar.LoadWith("fig2.g", fig2Src, llstar.LoadOptions{Tracer: tracer, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	p := g.NewParser(llstar.WithTracer(tracer), llstar.WithMetrics(reg), llstar.WithStats())
	if _, err := p.Parse("t", "- - 5 !"); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	byName := map[string]int{}
	var predicts []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		byName[ev["name"].(string)]++
		if ev["name"] == "predict" {
			predicts = append(predicts, ev)
		}
	}
	for _, want := range []string{"analysis", "atn.build", "dfa.construct", "parse", "predict", "speculate.alt", "memo.miss"} {
		if byName[want] == 0 {
			t.Errorf("no %q events; got %v", want, byName)
		}
	}
	// The t decision is a backtrack decision; at least one prediction
	// event must carry that throttle level, a decision ID, and a
	// lookahead depth.
	found := false
	for _, ev := range predicts {
		if ev["throttle"] == "backtrack" {
			found = true
			if _, ok := ev["decision"]; !ok {
				t.Errorf("backtrack predict without decision: %v", ev)
			}
			if _, ok := ev["k"]; !ok {
				t.Errorf("backtrack predict without k: %v", ev)
			}
			if ev["backtracked"] != true {
				t.Errorf("fig2 t-decision on '- - 5 !' must speculate: %v", ev)
			}
		}
	}
	if !found {
		t.Errorf("no backtrack-throttle predictions; got %v", predicts)
	}

	// Metrics cover both phases.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		`llstar_predict_events_total{throttle="backtrack"}`,
		"llstar_analysis_decisions_total",
		"llstar_analysis_closure_calls_total",
		"llstar_lookahead_depth_bucket",
		`llstar_speculations_total{result=`,
		"llstar_memo_stores_total",
		"llstar_parses_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}

	// Stats and metrics agree on memo stores (satellite: Stores surfaced).
	if p.Stats().MemoStores <= 0 {
		t.Errorf("MemoStores = %d, want > 0", p.Stats().MemoStores)
	}
	if got := reg.Counter("llstar_memo_stores_total").Value(); got != int64(p.Stats().MemoStores) {
		t.Errorf("metric stores %d != stats stores %d", got, p.Stats().MemoStores)
	}
	if !strings.Contains(p.Stats().String(), "stores=") || !strings.Contains(p.Stats().String(), "hit-ratio=") {
		t.Errorf("Stats.String missing memo detail: %s", p.Stats())
	}
}

// TestTracedParseChrome checks the Chrome sink produces one valid JSON
// array with properly-shaped span events after Close.
func TestTracedParseChrome(t *testing.T) {
	var buf bytes.Buffer
	tracer := llstar.NewChromeTracer(&buf)
	g, err := llstar.LoadWith("fig2.g", fig2Src, llstar.LoadOptions{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	p := g.NewParser(llstar.WithTracer(tracer))
	if _, err := p.Parse("t", "- - - 7 ;"); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	sawPredict := false
	for _, ev := range events {
		for _, key := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		if ev["name"] == "predict" {
			sawPredict = true
			if ev["ph"] != "X" || ev["dur"].(float64) <= 0 {
				t.Errorf("predict span malformed: %v", ev)
			}
			args := ev["args"].(map[string]any)
			for _, key := range []string{"decision", "throttle", "k"} {
				if _, ok := args[key]; !ok {
					t.Errorf("predict args missing %q: %v", key, args)
				}
			}
		}
	}
	if !sawPredict {
		t.Error("no predict spans in chrome trace")
	}
}

// TestNopTracerIsFree: installing the no-op tracer must not enable any
// instrumentation (it normalizes to nil inside the parser).
func TestNopTracerIsFree(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	p := g.NewParser(llstar.WithTracer(llstar.NopTracer()))
	if _, err := p.Parse("t", "- - 5 !"); err != nil {
		t.Fatal(err)
	}
}

// TestNopTracerOverheadGuard enforces the disabled-overhead contract:
// the no-op tracer normalizes to no consumer, so a parser with it
// installed leaves the probe nil and allocates what a bare parser does.
func TestNopTracerOverheadGuard(t *testing.T) {
	f := newAllocFixture(t)
	f.checkBare(t, map[string]*llstar.Parser{
		"nop tracer": f.g.NewParser(llstar.WithTracer(llstar.NopTracer())),
	})
}

// TestAnalysisProfile checks the per-decision analysis profile surface.
func TestAnalysisProfile(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	prof := g.AnalysisProfile()
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	for i, d := range prof {
		if d.ClosureCalls <= 0 {
			t.Errorf("profile[%d] closure calls = %d", i, d.ClosureCalls)
		}
		if d.DFAStates <= 0 {
			t.Errorf("profile[%d] states = %d", i, d.DFAStates)
		}
		if i > 0 && prof[i-1].Elapsed < d.Elapsed {
			t.Errorf("profile not sorted by elapsed at %d", i)
		}
	}
	// The t decision throttles to backtracking (recursion in both
	// alternatives overwhelms the governor) — the profile must say so.
	sawBacktrack := false
	for _, d := range prof {
		if d.Class == llstar.Backtrack {
			sawBacktrack = true
		}
	}
	if !sawBacktrack {
		t.Error("fig2 profile must contain a backtrack decision")
	}
}
