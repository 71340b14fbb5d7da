package llstar_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llstar"
	"llstar/internal/bench"
)

// TestCoverageStrategySumsMatchStats drives the acceptance criterion on
// the Java1.5 workload: with coverage and stats both enabled, the
// per-decision strategy counts must sum to exactly the prediction
// events ParseStats reports — both overall and per decision.
func TestCoverageStrategySumsMatchStats(t *testing.T) {
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	prof := g.NewCoverage()
	p := g.NewParser(llstar.WithStats(), llstar.WithCoverage(prof))
	input := w.Input(1, 400)
	if _, err := p.Parse(w.Start, input); err != nil {
		t.Fatal(err)
	}
	s := prof.Snapshot()
	stats := p.Stats()

	if got, want := s.TotalPredictions(), int64(stats.TotalEvents()); got != want {
		t.Fatalf("coverage predictions %d != stats events %d", got, want)
	}
	if s.TotalPredictions() == 0 {
		t.Fatal("no predictions recorded on java15 corpus")
	}
	for i, d := range s.Decisions {
		var sum int64
		for _, n := range d.Strategy {
			sum += n
		}
		if sum != d.Predictions {
			t.Errorf("decision %d: strategy sum %d != predictions %d", i, sum, d.Predictions)
		}
		if d.Predictions != int64(stats.Decisions[i].Events) {
			t.Errorf("decision %d: coverage %d events, stats %d", i, d.Predictions, stats.Decisions[i].Events)
		}
		if d.Strategy[3] != int64(stats.Decisions[i].BacktrackEvents) {
			t.Errorf("decision %d: coverage backtrack %d, stats %d", i, d.Strategy[3], stats.Decisions[i].BacktrackEvents)
		}
	}
	// Java1.5 is a PEG-mode grammar: the corpus must exercise
	// backtracking somewhere, and the hotspot report must say so.
	if sum := s.StrategyTotals(); sum[3] == 0 {
		t.Error("java15 corpus produced no backtrack predictions")
	}
	var hot bytes.Buffer
	if err := s.WriteHotspots(&hot, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hot.String(), "backtrack") {
		t.Errorf("hotspot table missing strategy columns:\n%s", hot.String())
	}
	var rep bytes.Buffer
	if err := s.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "grammar coverage: Java15") {
		t.Errorf("report header wrong:\n%.200s", rep.String())
	}
}

// TestConcurrentCoverageMergeEqualsSum checks the merge property:
// a profile accumulated by ParseConcurrent across goroutines equals
// the sum of profiles from the same parses run in isolation.
func TestConcurrentCoverageMergeEqualsSum(t *testing.T) {
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh load: ParseConcurrent's shared pool is built once per
	// Grammar, and coverage must be installed before that.
	g, err := w.LoadFresh()
	if err != nil {
		t.Fatal(err)
	}
	merged := g.NewCoverage()
	g.SetConcurrentCoverage(merged)

	inputs := make([]string, 12)
	for i := range inputs {
		inputs[i] = w.Input(int64(i+1), 40+5*i)
	}

	var wg sync.WaitGroup
	for _, in := range inputs {
		wg.Add(1)
		go func(in string) {
			defer wg.Done()
			if _, err := g.ParseConcurrent(w.Start, in); err != nil {
				t.Error(err)
			}
		}(in)
	}
	wg.Wait()

	sum := g.NewCoverage()
	for _, in := range inputs {
		solo := g.NewCoverage()
		p := g.NewParser(llstar.WithTree(), llstar.WithCoverage(solo))
		if _, err := p.Parse(w.Start, in); err != nil {
			t.Fatal(err)
		}
		sum.Merge(solo.Snapshot())
	}

	a, b := merged.Snapshot(), sum.Snapshot()
	if !reflect.DeepEqual(a.Decisions, b.Decisions) || !reflect.DeepEqual(a.Rules, b.Rules) ||
		a.Parses != b.Parses || a.Tokens != b.Tokens || a.ParseErrors != b.ParseErrors {
		t.Fatalf("concurrent merged profile != sum of per-parse profiles\nmerged: parses=%d tokens=%d\nsum:    parses=%d tokens=%d",
			a.Parses, a.Tokens, b.Parses, b.Tokens)
	}
}

// TestCoverageOverheadGuard enforces the coverage cost contract: with
// no profile installed the probe is nil and a parser allocates what a
// bare parser does, and with coverage enabled the counters are plain
// field updates flushed once per parse, so the allocations it adds do
// not grow with the input.
func TestCoverageOverheadGuard(t *testing.T) {
	f := newAllocFixture(t)
	f.checkBare(t, map[string]*llstar.Parser{
		"nil coverage": f.g.NewParser(llstar.WithCoverage(nil)),
	})
	f.checkConstant(t, f.g.NewParser(llstar.WithTree(), llstar.WithCoverage(f.g.NewCoverage())), false)
}
