// Package obs is the observability layer for llstar: structured trace
// events from both the static analysis (subset construction, fallbacks,
// ambiguity resolution) and the parser runtime (prediction, speculation,
// memoization, error recovery), plus a metrics registry with counters
// and bounded histograms.
//
// The design constraint is that *disabled* observability must be free on
// the parser hot path. Callers normalize their tracer once with Active
// — which maps nil and the no-op tracer to nil — and then gate every
// emission on a plain nil check. Nothing is allocated, formatted, or
// timed unless a real sink is installed.
package obs

import "time"

// Phase distinguishes the instrumented phases of the system.
type Phase string

// Phases.
const (
	// PhaseAnalysis covers grammar analysis: ATN construction and
	// per-decision lookahead-DFA subset construction (paper Section 5).
	PhaseAnalysis Phase = "analysis"
	// PhaseRuntime covers parse execution: prediction, speculation,
	// memoization, error recovery (paper Section 4).
	PhaseRuntime Phase = "runtime"
	// PhaseServer covers the HTTP parse service: per-request spans from
	// llstar-serve (see docs/server.md).
	PhaseServer Phase = "server"
	// PhaseStream covers streaming parse sessions: chunk feeds
	// (stream.feed), the suspendable parse loop (stream.parse), and
	// incremental reparse (stream.edit). See docs/streaming.md.
	PhaseStream Phase = "stream"
)

// Event phase types (the Ph field), following the Chrome trace_event
// convention.
const (
	// PhSpan is a complete span with a start time and duration.
	PhSpan byte = 'X'
	// PhInstant is a point-in-time event.
	PhInstant byte = 'i'
)

// Event is one structured trace record. Spans (Ph == PhSpan) carry a
// duration; instants (Ph == PhInstant) do not. Unused attribute fields
// are left at their zero value (Decision uses -1 for "not
// decision-scoped") and are omitted by the writers where the format
// supports it.
type Event struct {
	// Name identifies the event kind, e.g. "predict", "speculate.alt",
	// "dfa.construct". The full vocabulary is documented in
	// docs/observability.md.
	Name string
	// Cat is the phase the event belongs to.
	Cat Phase
	// Ph is PhSpan or PhInstant.
	Ph byte
	// TS is the event (or span start) time relative to the tracer epoch.
	TS time.Duration
	// Dur is the span duration (spans only).
	Dur time.Duration

	// Decision is the decision ID the event concerns, or -1.
	Decision int
	// Rule is the enclosing rule name, if any.
	Rule string
	// Alt is the alternative chosen or speculated (1-based; 0 = none).
	Alt int
	// K is the lookahead depth: tokens examined (predict) or tokens
	// speculatively consumed (speculate).
	K int
	// Depth is the speculation nesting level at the time of the event.
	Depth int
	// Throttle is the decision's throttle level: "fixed", "cyclic", or
	// "backtrack" (predict spans; also the decision class on
	// dfa.construct spans).
	Throttle string
	// Backtracked reports whether a prediction event engaged
	// speculation at runtime.
	Backtracked bool
	// OK is the event outcome (prediction succeeded, speculation
	// matched, predicate passed, parse completed).
	OK bool
	// N is a generic count: DFA states on dfa.construct spans, tokens
	// buffered on parse spans, tokens deleted on resync instants, the
	// memoized stop index on memo instants.
	N int64
	// Worker is the analysis worker-pool index that emitted the event
	// (0 for serial analysis and all runtime events). The Chrome writer
	// maps it to the thread lane so parallel analysis renders as one
	// timeline row per worker.
	Worker int
	// Detail is free-form context: predicate text, warning message,
	// fallback reason.
	Detail string
}

// Tracer receives structured events. Implementations must be safe for
// use from a single parse at a time; the provided writers additionally
// lock so one tracer can serve analysis and several parses.
type Tracer interface {
	// Emit records one event.
	Emit(Event)
	// Now returns the monotonic time since the tracer's epoch, used to
	// timestamp spans consistently with the sink's clock.
	Now() time.Duration
}

type nopTracer struct{}

func (nopTracer) Emit(Event)         {}
func (nopTracer) Now() time.Duration { return 0 }

// Nop is a Tracer that discards everything. Installing it is
// indistinguishable from installing no tracer at all: Active normalizes
// it to nil before it ever reaches a hot path.
var Nop Tracer = nopTracer{}

// Active normalizes a tracer for hot-path use: nil and the no-op tracer
// become nil, so instrumentation sites can gate on a single pointer
// comparison instead of an interface method call.
func Active(t Tracer) Tracer {
	if t == nil || t == Nop {
		return nil
	}
	return t
}
