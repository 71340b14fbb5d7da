package llstar_test

import (
	"io"
	goruntime "runtime"
	"strings"
	"testing"

	"llstar"
	"llstar/internal/bench"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocFixture is what the probe's allocation guards parse: the Java1.5
// benchmark grammar with 120- and 480-line inputs. The guards count
// allocations, which, unlike wall-clock timings, do not depend on the
// machine or its load.
type allocFixture struct {
	w            bench.Workload
	g            *llstar.Grammar
	small, large string
	rec          *llstar.FlightRecorder
}

func newAllocFixture(t *testing.T) *allocFixture {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	return &allocFixture{w: w, g: g, small: w.Input(1, 120), large: w.Input(1, 480),
		rec: llstar.NewFlightRecorder(256)}
}

// perParse returns p's mean allocations per parse of input, after one
// warm-up parse that grows the storage a parser reuses (memo table,
// tree-building stack). Counts barely vary from parse to parse; the
// mean smooths what the runtime allocates on its own now and then.
// With flight set, a reset recorder is attached before each parse and
// detached after it.
func (f *allocFixture) perParse(t *testing.T, p *llstar.Parser, input string, flight bool) float64 {
	t.Helper()
	const runs = 20
	var before, after goruntime.MemStats
	for i := -1; i < runs; i++ { // one warm-up parse
		if i == 0 {
			goruntime.ReadMemStats(&before)
		}
		if flight {
			f.rec.Reset()
			p.SetFlightRecorder(f.rec)
		}
		if _, err := p.Parse(f.w.Start, input); err != nil {
			t.Fatal(err)
		}
		if flight {
			p.SetFlightRecorder(nil)
		}
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// checkBare fails t unless each parser, which installs no consumer and
// so leaves the probe nil, allocates what a bare parser does, to within
// one allocation per parse.
func (f *allocFixture) checkBare(t *testing.T, parsers map[string]*llstar.Parser) {
	t.Helper()
	bare := f.perParse(t, f.g.NewParser(), f.small, false)
	for name, p := range parsers {
		if got := f.perParse(t, p, f.small, false); got-bare >= 1 || bare-got >= 1 {
			t.Errorf("%s: %.1f allocs/parse, bare parser %.1f", name, got, bare)
		}
	}
}

// checkConstant fails t unless p (parsing with a recorder attached when
// flight is set) adds the same number of allocations per parse, within
// ±2, over a tree-building parser at 120 and 480 input lines: none of
// its consumers allocates per event.
func (f *allocFixture) checkConstant(t *testing.T, p *llstar.Parser, flight bool) {
	t.Helper()
	tree := f.g.NewParser(llstar.WithTree())
	overhead := func(input string) float64 {
		return f.perParse(t, p, input, flight) - f.perParse(t, tree, input, false)
	}
	o120, o480 := overhead(f.small), overhead(f.large)
	t.Logf("consumer allocations: %+.1f/parse at 120 lines, %+.1f at 480", o120, o480)
	if o480-o120 > 2 || o120-o480 > 2 {
		t.Errorf("consumer allocations grow with input: %+.1f allocs/parse at 120 lines, %+.1f at 480", o120, o480)
	}
}

// TestProbeAllocGuard enforces the runtime probe's cost contract for the
// parse service: a nil metrics registry leaves the probe nil and
// allocates what a bare parser does, and the service's consumer set
// (stats, coverage, metrics and a flight recorder attached per parse)
// adds the same number of allocations per parse at 120 and 480 input
// lines. TestNopTracerOverheadGuard, TestCoverageOverheadGuard and
// TestFlightDisabledOverheadGuard hold each hook to the same contract.
func TestProbeAllocGuard(t *testing.T) {
	f := newAllocFixture(t)
	f.checkBare(t, map[string]*llstar.Parser{
		"nil metrics": f.g.NewParser(llstar.WithMetrics(nil)),
	})
	f.checkConstant(t, f.g.NewParser(llstar.WithTree(), llstar.WithStats(),
		llstar.WithCoverage(f.g.NewCoverage()), llstar.WithMetrics(llstar.NewMetrics())), true)
}

// TestParseAllocGuard enforces the parse loop's allocation budget: a
// warmed parser parses Java1.5 at 120 and 480 lines in at most 1.5
// allocations per token plus 64, with and without a tree. Trees come
// from per-parse chunks, and the memo table and token buffer are not
// rebuilt by appending; what remains per token is mostly the lexer's
// token texts and the messages of discarded speculative errors.
func TestParseAllocGuard(t *testing.T) {
	f := newAllocFixture(t)
	leaves := f.g.NewParser(llstar.WithTree())
	for _, input := range []string{f.small, f.large} {
		tree, err := leaves.Parse(f.w.Start, input)
		if err != nil {
			t.Fatal(err)
		}
		tokens := len(tree.Leaves())
		limit := 1.5*float64(tokens) + 64
		for name, p := range map[string]*llstar.Parser{
			"bare": f.g.NewParser(),
			"tree": f.g.NewParser(llstar.WithTree()),
		} {
			got := f.perParse(t, p, input, false)
			t.Logf("%s, %d tokens: %.0f allocs/parse, %.2f per token", name, tokens, got, got/float64(tokens))
			if got > limit {
				t.Errorf("%s parse of %d tokens: %.0f allocations, want <= %.0f", name, tokens, got, limit)
			}
		}
	}
}

// rendered keeps TestRenderAllocGuard's renderings live.
var rendered string

// TestRenderAllocGuard enforces Tree.String's cost contract: it renders
// a Java1.5 tree of 120 or 480 lines in at most 2 allocations and at
// most 1.25 bytes allocated per byte of output, and its output is the
// s-expression a node-by-node rendering produces.
func TestRenderAllocGuard(t *testing.T) {
	f := newAllocFixture(t)
	p := f.g.NewParser(llstar.WithTree())
	for _, input := range []string{f.small, f.large} {
		tree, err := p.Parse(f.w.Start, input)
		if err != nil {
			t.Fatal(err)
		}
		if tree.String() != sexpr(tree) {
			t.Fatal("String() differs from a node-by-node rendering")
		}
		const runs = 20
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for range runs {
			rendered = tree.String()
		}
		goruntime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(rendered))
		t.Logf("%d bytes: %.1f allocs, %.2fx the output", len(rendered), allocs, ratio)
		if allocs > 2 || ratio > 1.25 {
			t.Errorf("rendering %d bytes took %.1f allocations and %.2fx the output; want <= 2 and <= 1.25x",
				len(rendered), allocs, ratio)
		}
	}
}

// sexpr renders n node by node, as (rule child ...).
func sexpr(n *llstar.Tree) string {
	if n.Token != nil {
		return n.Token.Text
	}
	parts := []string{"(" + n.Rule}
	for _, c := range n.Children {
		parts = append(parts, sexpr(c))
	}
	return strings.Join(parts, " ") + ")"
}

// BenchmarkProbeOverhead reports what each probe consumer costs on a
// pooled (reused) parser, against the nil-probe "off" baseline. The
// "server" row is the parse service's default set, to compare with the
// tree-only "tree" row: stats, coverage and metrics, plus a flight
// recorder attached before each parse and detached after it.
//
//	go test -run '^$' -bench BenchmarkProbeOverhead -benchmem .
func BenchmarkProbeOverhead(b *testing.B) {
	w, err := bench.ByName("Java1.5")
	if err != nil {
		b.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(1, 500)
	rec := llstar.NewFlightRecorder(256)
	for _, c := range []struct {
		name   string
		opts   []llstar.ParserOption
		flight bool
	}{
		{name: "off"},
		{name: "tree", opts: []llstar.ParserOption{llstar.WithTree()}},
		{name: "server", flight: true, opts: []llstar.ParserOption{llstar.WithTree(), llstar.WithStats(),
			llstar.WithCoverage(g.NewCoverage()), llstar.WithMetrics(llstar.NewMetrics())}},
		{name: "stats", opts: []llstar.ParserOption{llstar.WithStats()}},
		{name: "coverage", opts: []llstar.ParserOption{llstar.WithCoverage(g.NewCoverage())}},
		{name: "trace", opts: []llstar.ParserOption{llstar.WithTracer(llstar.NewJSONLTracer(io.Discard))}},
		{name: "flight", flight: true},
		{name: "metrics", opts: []llstar.ParserOption{llstar.WithMetrics(llstar.NewMetrics())}},
		{name: "all", flight: true, opts: []llstar.ParserOption{llstar.WithStats(),
			llstar.WithCoverage(g.NewCoverage()), llstar.WithMetrics(llstar.NewMetrics()),
			llstar.WithTracer(llstar.NewJSONLTracer(io.Discard))}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := g.NewParser(c.opts...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.flight {
					rec.Reset()
					p.SetFlightRecorder(rec)
				}
				if _, err := p.Parse(w.Start, input); err != nil {
					b.Fatal(err)
				}
				if c.flight {
					p.SetFlightRecorder(nil)
				}
			}
		})
	}
}
