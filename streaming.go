package llstar

import (
	"llstar/internal/stream"
)

// Re-exported streaming types. A Session consumes input in chunks and
// emits SAX-style events through a Sink instead of materializing a
// tree; sessions opened incremental retain their state and accept
// Edits. See docs/streaming.md.
type (
	// Session is a streaming parse session (Feed/Finish/Edit).
	Session = stream.Session
	// StreamEvent is one SAX-style parse event.
	StreamEvent = stream.Event
	// StreamEventKind discriminates stream events.
	StreamEventKind = stream.EventKind
	// StreamSink consumes session events.
	StreamSink = stream.Sink
	// StreamSinkFunc adapts a function to StreamSink.
	StreamSinkFunc = stream.SinkFunc
	// StreamStats describes a session after Finish and after each Edit.
	StreamStats = stream.Stats
	// StreamError is a syntax error delivered as an event.
	StreamError = stream.SyntaxError
	// Edit is one text replacement applied to an incremental session.
	Edit = stream.Edit
	// StreamTreeBuilder is a sink reconstructing the parse tree from
	// the event stream.
	StreamTreeBuilder = stream.TreeBuilder
)

// Stream event kinds.
const (
	StreamRuleEnter   = stream.KindRuleEnter
	StreamRuleExit    = stream.KindRuleExit
	StreamToken       = stream.KindToken
	StreamSyntaxError = stream.KindSyntaxError
)

// NewStreamTreeBuilder returns a sink that rebuilds the parse tree
// from the event stream — byte-identical to a batch parse with
// WithTree.
func NewStreamTreeBuilder() *StreamTreeBuilder { return stream.NewTreeBuilder() }

// SessionOption configures NewSession.
type SessionOption func(*stream.Options)

// WithStartRule sets the session's start rule (default: the grammar's
// first parser rule).
func WithStartRule(rule string) SessionOption {
	return func(o *stream.Options) { o.Rule = rule }
}

// WithSink installs the event sink. Without one, events are counted
// but dropped (validation-only streaming).
func WithSink(s StreamSink) SessionOption {
	return func(o *stream.Options) { o.Sink = s }
}

// WithEvents installs a function sink.
func WithEvents(fn func(StreamEvent)) SessionOption {
	return func(o *stream.Options) { o.Sink = stream.SinkFunc(fn) }
}

// WithIncremental retains text, tokens, memo table, and tree after
// Finish so the session accepts Edits. Costs memory proportional to
// the input (the sliding token window is disabled).
func WithIncremental() SessionOption {
	return func(o *stream.Options) { o.Incremental = true }
}

// WithSessionRecovery turns syntax errors into events and keeps
// parsing.
func WithSessionRecovery() SessionOption {
	return func(o *stream.Options) { o.Recover = true }
}

// WithMaxBytes caps the total bytes the session accepts (Feed and
// Edit return ErrStreamTooLarge past it; 0 = unlimited).
func WithMaxBytes(n int64) SessionOption {
	return func(o *stream.Options) { o.MaxBytes = n }
}

// WithSessionTracer streams stream.feed / stream.parse spans (plus
// all runtime events of the underlying parse) to t.
func WithSessionTracer(t Tracer) SessionOption {
	return func(o *stream.Options) { o.Tracer = t }
}

// WithSessionFlightRecorder records the session's events into a bounded
// flight-recorder ring.
func WithSessionFlightRecorder(r *FlightRecorder) SessionOption {
	return func(o *stream.Options) {
		if r != nil {
			o.Flight = r
		}
	}
}

// WithSessionMetrics accumulates llstar_stream_* counters (and the
// underlying parse's runtime counters) into m.
func WithSessionMetrics(m *Metrics) SessionOption {
	return func(o *stream.Options) { o.Metrics = m }
}

// Streaming error sentinels.
var (
	// ErrStreamTooLarge is returned by Session.Feed/Edit past the
	// WithMaxBytes cap.
	ErrStreamTooLarge = stream.ErrTooLarge
	// ErrStreamFinished is returned by Session.Feed after Finish.
	ErrStreamFinished = stream.ErrFinished
)

// NewSession starts a streaming parse session over the grammar. Feed
// it input in chunks, then Finish; with WithIncremental, apply Edits
// afterwards. A Session is single-goroutine like a Parser; the
// Grammar may be shared freely.
func (g *Grammar) NewSession(opts ...SessionOption) (*Session, error) {
	var o stream.Options
	for _, fn := range opts {
		fn(&o)
	}
	return stream.New(g.res, o)
}
