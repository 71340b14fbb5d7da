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
	tracer   Tracer
	throttle []string        // static decision class, by decision ID
	open     []time.Duration // start times of the open spans
}

// NewTraceProbe returns a trace consumer writing to tracer, which must
// be Active. throttle names each decision's static class: "fixed",
// "cyclic" or "backtrack".
func NewTraceProbe(tracer Tracer, throttle []string) *TraceProbe {
	return &TraceProbe{tracer: tracer, throttle: throttle}
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
		Throttle: t.throttle[e.Decision], Backtracked: e.Backtracked, OK: !e.Failed,
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

// Event counters of the metrics consumer, by index into countSeries.
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
}

// MetricsProbe is the metrics consumer of the parser's runtime.Probe.
// It counts one parse's events in plain fields and flushes them into
// the registry once, at the parse's end — as the coverage recorder
// does — resolving each instrument on first use and keeping the handle
// for the parser's lifetime, so an event costs no locking, string
// building or allocation.
type MetricsProbe struct {
	runtime.NopProbe
	m        *Metrics
	throttle []string

	// This parse's counts, cleared by the flush.
	counts    [numCounts]int64
	depth     []histAcc // lookahead depth, by decision
	touched   []int     // decisions with depth[d].n > 0
	specDepth histAcc

	// Instruments resolved so far.
	depthH   []*Histogram // by decision
	predictC []*Counter   // by decision: its throttle's event counter
	counters map[string]*Counter
	hists    map[string]*Histogram
	memoSize *Gauge
}

// NewMetricsProbe returns a metrics consumer for one parser, flushing
// into m. throttle names each decision's static class, as for
// NewTraceProbe.
func NewMetricsProbe(m *Metrics, throttle []string) *MetricsProbe {
	n := len(throttle)
	return &MetricsProbe{
		m: m, throttle: throttle,
		depth: make([]histAcc, n), depthH: make([]*Histogram, n), predictC: make([]*Counter, n),
		counters: map[string]*Counter{}, hists: map[string]*Histogram{},
	}
}

func (mp *MetricsProbe) Predict(e runtime.Prediction) {
	a := &mp.depth[e.Decision]
	if a.n == 0 {
		mp.touched = append(mp.touched, e.Decision)
	}
	a.observe(int64(e.K))
	if e.Backtracked {
		mp.counts[cBacktrack]++
	}
}

func (mp *MetricsProbe) Speculate(e runtime.Speculation) {
	match := 0
	if e.OK {
		match = 1
	}
	if e.SynPred >= 0 {
		mp.counts[cSynPredFail+match]++
	}
	mp.counts[cSpecFail+match]++
	mp.specDepth.observe(int64(e.Tokens))
}

func (mp *MetricsProbe) SemPred(_, _ string, _ int, ok bool, err error) {
	switch {
	case err != nil:
		mp.counts[cSemPredError]++
	case !ok:
		mp.counts[cSemPredFalse]++
	default:
		mp.counts[cSemPredTrue]++
	}
}

func (mp *MetricsProbe) SyntaxError(*runtime.SyntaxError) { mp.counts[cSyntaxErrors]++ }

func (mp *MetricsProbe) Resync(int, string, int, bool) { mp.counts[cResyncs]++ }

// EndParse flushes the parse's counts; a full parse also counts itself,
// its tokens and its memo table. Event series are created only once
// they count something.
func (mp *MetricsProbe) EndParse(e runtime.ParseEnd) {
	if len(mp.touched) > 0 {
		var all histAcc
		for _, d := range mp.touched {
			a := &mp.depth[d]
			if mp.depthH[d] == nil {
				mp.depthH[d] = mp.m.Histogram(Label("llstar_lookahead_depth", "decision", strconv.Itoa(d)))
				mp.predictC[d] = mp.counter(Label("llstar_predict_events_total", "throttle", mp.throttle[d]))
			}
			mp.predictC[d].Add(a.n)
			mp.depthH[d].merge(a)
			all.add(a)
			*a = histAcc{}
		}
		mp.touched = mp.touched[:0]
		mp.hist("llstar_lookahead_depth").merge(&all)
	}
	if mp.specDepth.n > 0 {
		mp.hist("llstar_speculation_depth").merge(&mp.specDepth)
		mp.specDepth = histAcc{}
	}
	for i, n := range mp.counts {
		if n != 0 {
			mp.counter(countSeries[i]).Add(n)
			mp.counts[i] = 0
		}
	}
	if e.Fragment {
		return
	}
	mp.counter("llstar_parses_total").Inc()
	if e.Err != nil {
		mp.counter("llstar_parse_errors_total").Inc()
	}
	mp.counter("llstar_tokens_total").Add(int64(e.Tokens))
	if memo := e.Memo; memo != nil {
		mp.counter("llstar_memo_hits_total").Add(int64(memo.Hits()))
		mp.counter("llstar_memo_misses_total").Add(int64(memo.Misses()))
		mp.counter("llstar_memo_stores_total").Add(int64(memo.Stores()))
		if mp.memoSize == nil {
			mp.memoSize = mp.m.Gauge("llstar_memo_entries")
		}
		mp.memoSize.Set(int64(memo.Entries()))
	}
}

func (mp *MetricsProbe) counter(name string) *Counter {
	c := mp.counters[name]
	if c == nil {
		c = mp.m.Counter(name)
		mp.counters[name] = c
	}
	return c
}

func (mp *MetricsProbe) hist(name string) *Histogram {
	h := mp.hists[name]
	if h == nil {
		h = mp.m.Histogram(name)
		mp.hists[name] = h
	}
	return h
}
