package obs

import (
	"strconv"
	"time"

	"llstar/internal/runtime"
)

// TraceProbe is the tracing consumer of the parser's runtime.Probe: it
// renders parse-loop events as runtime trace events (parse, predict and
// speculate spans; memo, sempred, error and resync instants) for a
// tracer, stamped with the tracer's clock.
type TraceProbe struct {
	runtime.NopProbe
	tracer Tracer
	shape  *runtime.Shape  // names each decision's throttle
	open   []time.Duration // start times of the open spans
}

// NewTraceProbe returns a trace consumer writing to tracer, which must
// be Active, for a parser of a grammar with the given shape.
func NewTraceProbe(tracer Tracer, shape *runtime.Shape) *TraceProbe {
	return &TraceProbe{tracer: tracer, shape: shape}
}

func (t *TraceProbe) instant(e Event) {
	e.Cat, e.Ph, e.TS = PhaseRuntime, PhInstant, t.tracer.Now()
	t.tracer.Emit(e)
}

// span closes the innermost open span. Parse, prediction and
// speculation spans nest, so one stack of start times serves all three.
func (t *TraceProbe) span(e Event) {
	n := len(t.open) - 1
	e.Cat, e.Ph, e.TS, t.open = PhaseRuntime, PhSpan, t.open[n], t.open[:n]
	e.Dur = t.tracer.Now() - e.TS
	t.tracer.Emit(e)
}

func (t *TraceProbe) BeginParse(bool) { t.open = append(t.open[:0], t.tracer.Now()) }

func (t *TraceProbe) BeginPredict() { t.open = append(t.open, t.tracer.Now()) }

func (t *TraceProbe) BeginSpeculate() { t.open = append(t.open, t.tracer.Now()) }

func (t *TraceProbe) Memo(_ int, rule string, start, depth int, hit, ok bool) {
	name := "memo.miss"
	if hit {
		name = "memo.hit"
	}
	t.instant(Event{Name: name, Decision: -1, Rule: rule, Depth: depth, OK: ok, N: int64(start)})
}

func (t *TraceProbe) Predict(e runtime.Prediction) {
	t.span(Event{
		Name: "predict", Decision: e.Decision, Rule: e.Rule, Alt: e.Alt, K: e.K, Depth: e.Depth,
		Throttle: t.shape.Decisions[e.Decision].Class.String(), Backtracked: e.Backtracked, OK: !e.Failed,
	})
}

func (t *TraceProbe) Speculate(e runtime.Speculation) {
	ev := Event{Name: "speculate.alt", Decision: e.Decision, Rule: e.Rule, Alt: e.Alt, K: e.Tokens, Depth: e.Depth, OK: e.OK}
	if e.SynPred >= 0 {
		ev.Name, ev.Decision, ev.Alt = "speculate.synpred", -1, e.SynPred
	}
	t.span(ev)
}

func (t *TraceProbe) SemPred(rule, text string, depth int, ok bool, err error) {
	if err != nil {
		text += ": " + err.Error()
	}
	t.instant(Event{Name: "sempred", Decision: -1, Rule: rule, Depth: depth, OK: ok, Detail: text})
}

func (t *TraceProbe) SyntaxError(se *runtime.SyntaxError) {
	t.instant(Event{Name: "error", Decision: -1, Rule: se.Rule, Detail: se.Msg, N: int64(se.Offending.Index)})
}

func (t *TraceProbe) Resync(decision int, rule string, deleted int, ok bool) {
	t.instant(Event{Name: "resync", Decision: decision, Rule: rule, OK: ok, N: int64(deleted)})
}

// EndParse closes the parse span; a fragment reparse has none, and the
// next BeginParse resets the stack.
func (t *TraceProbe) EndParse(e runtime.ParseEnd) {
	if !e.Fragment {
		t.span(Event{Name: "parse", Decision: -1, Rule: e.Rule, OK: e.Err == nil, N: int64(e.Tokens)})
	}
}

// Counters of the metrics flush, by index into countSeries.
const (
	cBacktrack = iota
	cSpecFail
	cSpecMatch
	cSynPredFail
	cSynPredMatch
	cSemPredTrue
	cSemPredFalse
	cSemPredError
	cSyntaxErrors
	cResyncs
	cParses
	cParseErrors
	cTokens
	cMemoHits
	cMemoMisses
	cMemoStores
	numCounts
)

var countSeries = [numCounts]string{
	"llstar_predict_backtrack_total",
	Label("llstar_speculations_total", "result", "fail"),
	Label("llstar_speculations_total", "result", "match"),
	Label("llstar_synpred_evals_total", "result", "fail"),
	Label("llstar_synpred_evals_total", "result", "match"),
	Label("llstar_sempred_evals_total", "result", "true"),
	Label("llstar_sempred_evals_total", "result", "false"),
	Label("llstar_sempred_evals_total", "result", "error"),
	"llstar_syntax_errors_total",
	"llstar_error_resyncs_total",
	"llstar_parses_total",
	"llstar_parse_errors_total",
	"llstar_tokens_total",
	"llstar_memo_hits_total",
	"llstar_memo_misses_total",
	"llstar_memo_stores_total",
}

// ParseMetrics publishes a parser's counter block into a metrics
// registry once per parse: register its Flush with the block's OnEnd.
// It resolves each instrument the first time it has something to count
// and keeps the handle for the parser's lifetime, so a warm flush takes
// no registry lock and builds no string.
type ParseMetrics struct {
	m     *Metrics
	shape *runtime.Shape

	counts              [numCounts]*Counter
	depthH              []*Histogram // lookahead depth, by decision
	predictC            []*Counter   // by decision: its throttle's event counter
	allDepth, specDepth *Histogram
	memoSize            *Gauge
}

// NewParseMetrics returns the metrics flush for one parser of a grammar
// with the given shape, publishing into m.
func NewParseMetrics(m *Metrics, shape *runtime.Shape) *ParseMetrics {
	n := len(shape.Decisions)
	return &ParseMetrics{m: m, shape: shape, depthH: make([]*Histogram, n), predictC: make([]*Counter, n)}
}

// Flush adds a finished parse's counts to the registry; a full parse
// also counts itself, its tokens and its memo table. Event series are
// created only once they count something.
func (pm *ParseMetrics) Flush(ps *runtime.ParseStats, e runtime.ParseEnd) {
	var all runtime.Hist
	var backtracks int64
	for d := range ps.Decisions {
		ds := &ps.Decisions[d]
		if ds.Events == 0 {
			continue
		}
		if pm.depthH[d] == nil {
			pm.depthH[d] = pm.m.Histogram(Label("llstar_lookahead_depth", "decision", strconv.Itoa(d)))
			pm.predictC[d] = pm.m.Counter(Label("llstar_predict_events_total", "throttle", pm.shape.Decisions[d].Class.String()))
		}
		h := runtime.Hist{Buckets: ds.Depth, Sum: ds.SumK, N: int64(ds.Events), Max: int64(ds.MaxK)}
		pm.predictC[d].Add(h.N)
		pm.depthH[d].merge(&h)
		for i, c := range h.Buckets {
			all.Buckets[i] += c
		}
		all.Sum, all.N, all.Max = all.Sum+h.Sum, all.N+h.N, max(all.Max, h.Max)
		backtracks += int64(ds.BacktrackEvents)
	}
	if all.N > 0 {
		pm.hist(&pm.allDepth, "llstar_lookahead_depth").merge(&all)
	}
	if ps.SpecDepth.N > 0 {
		pm.hist(&pm.specDepth, "llstar_speculation_depth").merge(&ps.SpecDepth)
	}
	for i, n := range [...]int64{
		cBacktrack: backtracks, cSpecFail: ps.SpecFailures, cSpecMatch: ps.SpecMatches,
		cSynPredFail: ps.SynPredFailures, cSynPredMatch: ps.SynPredMatches,
		cSemPredTrue: ps.SemPredTrue, cSemPredFalse: ps.SemPredFalse, cSemPredError: ps.SemPredErrors,
		cSyntaxErrors: ps.SyntaxErrors, cResyncs: ps.Resyncs,
	} {
		if n != 0 {
			pm.add(i, n)
		}
	}
	if e.Fragment {
		return
	}
	pm.add(cParses, 1)
	if e.Err != nil {
		pm.add(cParseErrors, 1)
	}
	pm.add(cTokens, int64(e.Tokens))
	if e.Memo != nil {
		pm.add(cMemoHits, int64(ps.MemoHits))
		pm.add(cMemoMisses, int64(ps.MemoMisses))
		pm.add(cMemoStores, int64(ps.MemoStores))
		if pm.memoSize == nil {
			pm.memoSize = pm.m.Gauge("llstar_memo_entries")
		}
		pm.memoSize.Set(int64(ps.MemoEntries))
	}
}

func (pm *ParseMetrics) add(i int, n int64) {
	if pm.counts[i] == nil {
		pm.counts[i] = pm.m.Counter(countSeries[i])
	}
	pm.counts[i].Add(n)
}

func (pm *ParseMetrics) hist(h **Histogram, name string) *Histogram {
	if *h == nil {
		*h = pm.m.Histogram(name)
	}
	return *h
}
