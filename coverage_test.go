package llstar_test

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"llstar"
	"llstar/internal/bench"
)

// TestCoverageStrategySumsMatchStats checks that every surface reading
// the parser's counter block reports the same counts, on each of the
// six benchmark grammars, with stats, coverage and metrics installed on
// one parser. Per decision, coverage predictions equal the Stats events
// and the count of llstar_lookahead_depth{decision}, and the strategy
// split sums to them; backtracks agree across Stats, coverage and
// llstar_predict_backtrack_total; and the Stats memo totals equal
// llstar_memo_{hits,misses}_total.
func TestCoverageStrategySumsMatchStats(t *testing.T) {
	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			g, err := w.Load()
			if err != nil {
				t.Fatal(err)
			}
			prof, mx := g.NewCoverage(), llstar.NewMetrics()
			p := g.NewParser(llstar.WithStats(), llstar.WithCoverage(prof), llstar.WithMetrics(mx))
			if _, err := p.Parse(w.Start, w.Input(1, 400)); err != nil {
				t.Fatal(err)
			}
			s, stats := prof.Snapshot(), p.Stats()
			if s.TotalPredictions() == 0 {
				t.Fatal("no predictions recorded")
			}
			if got, want := s.TotalPredictions(), int64(stats.TotalEvents()); got != want {
				t.Fatalf("coverage predictions %d != stats events %d", got, want)
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
				if n := mx.Histogram(llstar.Label("llstar_lookahead_depth", "decision", strconv.Itoa(i))).Count(); n != d.Predictions {
					t.Errorf("decision %d: lookahead depth count %d, coverage %d predictions", i, n, d.Predictions)
				}
			}
			back := s.StrategyTotals()[3]
			if n := mx.Counter("llstar_predict_backtrack_total").Value(); n != back || n != int64(stats.BacktrackEvents()) {
				t.Errorf("backtracks: metrics %d, coverage %d, stats %d", n, back, stats.BacktrackEvents())
			}
			if h, m := mx.Counter("llstar_memo_hits_total").Value(), mx.Counter("llstar_memo_misses_total").Value(); h != int64(stats.MemoHits) || m != int64(stats.MemoMisses) {
				t.Errorf("memo hits/misses: metrics %d/%d, stats %d/%d", h, m, stats.MemoHits, stats.MemoMisses)
			}
			if w.Name != "Java1.5" {
				return
			}
			// Java1.5 is a PEG-mode grammar: the corpus must exercise
			// backtracking somewhere, and the hotspot report must say so.
			if back == 0 {
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
		})
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
