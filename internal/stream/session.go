package stream

import (
	"errors"
	"fmt"
	"time"

	"llstar/internal/core"
	"llstar/internal/interp"
	"llstar/internal/lexrt"
	"llstar/internal/obs"
	"llstar/internal/obs/flight"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// ErrTooLarge is returned by Feed and Edit when accepting the bytes
// would exceed the session's byte cap. The server maps it to 413.
var ErrTooLarge = errors.New("stream: session byte cap exceeded")

// ErrFinished is returned by Feed after Finish or Close.
var ErrFinished = errors.New("stream: session already finished")

// Options configure a Session.
type Options struct {
	// Rule is the start rule ("" = the grammar's start rule).
	Rule string
	// Sink receives SAX events. May be nil (events are counted but
	// dropped — useful for validation-only streaming).
	Sink Sink
	// Incremental retains the input text, token stream, memo table, and
	// parse tree after Finish so the session can accept Edits. It
	// disables the sliding token window (the whole stream must stay
	// addressable) and enables tree building.
	Incremental bool
	// Recover enables error recovery: syntax errors become events and
	// the parse continues.
	Recover bool
	// MaxBytes caps total input bytes accepted (0 = unlimited).
	MaxBytes int64
	// Tracer/Flight/Metrics instrument the session (stream.feed and
	// stream.parse spans, llstar_stream_* counters). All may be nil.
	Tracer  obs.Tracer
	Flight  *flight.Recorder
	Metrics *obs.Metrics
}

// Stats describes a session after Finish (and after each Edit).
type Stats struct {
	// BytesFed and Chunks count Feed traffic.
	BytesFed int64
	Chunks   int64
	// Events counts sink events emitted.
	Events int64
	// Tokens is the total on-channel tokens seen (including EOF).
	Tokens int
	// PeakWindow is the largest number of tokens simultaneously
	// buffered — the streaming memory bound, a function of grammar
	// shape, not input length.
	PeakWindow int
	// MaxK is the deepest lookahead observed.
	MaxK int
	// Edits counts accepted Edit calls.
	Edits int
	// ReusedTokens/RelexedTokens describe the last Edit: tokens spliced
	// through unchanged vs. produced by relexing the damaged range.
	ReusedTokens  int
	RelexedTokens int
	// TokenReuseRatio = ReusedTokens / (ReusedTokens + RelexedTokens).
	TokenReuseRatio float64
	// ReusedMemo/DroppedMemo describe the last Edit's memo rebase.
	ReusedMemo  int
	DroppedMemo int
	// Errors counts syntax-error events.
	Errors int64
}

// Session is a streaming parse: feed input bytes in chunks, receive
// SAX events synchronously, then Finish. The parse runs on a dedicated
// goroutine that suspends (parks) whenever the lexer has no complete
// token; Feed hands it the next chunk and blocks until it parks again,
// so callbacks and session state need no locking — at most one side is
// running at any instant.
type Session struct {
	res  *core.Result
	opts Options
	rule string
	ip   *interp.Parser
	lx   *lexrt.ChunkLexer
	ts   *runtime.TokenStream

	parked chan struct{}
	wake   chan struct{}
	doneCh chan struct{}
	done   bool
	abort  bool
	err    error

	stats      Stats
	sink       *sinkListener // the parser's probe consumer
	lastEvents int64         // events already flushed to metrics
	mx         *obs.Metrics
	// spanSinks receive the session's own stream.* spans: the tracer
	// and the flight recorder, each nil when absent. A span is timed on
	// the clock of the sink it goes to, so t0, the session's start,
	// holds one reading per sink.
	spanSinks [2]obs.Tracer
	t0        [2]time.Duration

	// Incremental state, populated at Finish when opts.Incremental.
	text   []byte
	tokens []token.Token
	units  []lexrt.Unit
	tree   *interp.Node
	memo   *runtime.MemoTable
	maxK   int
	clean  bool // tree is a clean (no recovered errors) parse of tokens
	// aliased means every leaf of tree points into the tokens array's
	// backing store (established by renumberLeaves), so an in-place
	// token splice updates leaf positions for free and only a grafted
	// repair fragment needs renumbering.
	aliased bool
}

// New starts a streaming session over an analyzed grammar. The parse
// goroutine launches immediately and parks waiting for the first Feed.
func New(res *core.Result, opts Options) (*Session, error) {
	if res.Machine.Lex == nil {
		return nil, fmt.Errorf("stream: grammar %s has no lexer rules", res.Grammar.Name)
	}
	rule := opts.Rule
	if rule == "" {
		rule = res.Grammar.Start().Name
	}
	if res.Machine.RuleIndexByName(rule) < 0 {
		return nil, fmt.Errorf("stream: no parser rule %s", rule)
	}
	s := &Session{
		res:    res,
		opts:   opts,
		rule:   rule,
		lx:     lexrt.NewChunk(res.Machine.Lex),
		parked: make(chan struct{}),
		wake:   make(chan struct{}),
		doneCh: make(chan struct{}),
		mx:     opts.Metrics,
	}
	s.sink = &sinkListener{s: s}
	probes := []runtime.Probe{s.sink}
	throttle := interp.Throttles(res)
	if tr := obs.Active(opts.Tracer); tr != nil {
		s.spanSinks[0] = tr
		probes = append(probes, obs.NewTraceProbe(tr, throttle))
	}
	if opts.Flight != nil {
		s.spanSinks[1] = opts.Flight
		fp := flight.NewProbe(throttle)
		fp.Attach(opts.Flight)
		probes = append(probes, fp)
	}
	if opts.Metrics != nil {
		probes = append(probes, obs.NewMetricsProbe(opts.Metrics, throttle))
	}
	memoize := true
	iopts := interp.Options{
		Memoize: &memoize,
		Recover: opts.Recover,
		Probe:   runtime.JoinProbes(probes...),
	}
	if opts.Incremental {
		// Edits graft reparsed fragments into the retained tree.
		iopts.BuildTree, iopts.Editable = true, true
		s.lx.RecordUnits()
	} else {
		iopts.Window = true
	}
	s.ip = interp.New(res, iopts)
	s.ts = runtime.NewTokenStream(chunkSource{s})
	s.t0 = s.now()
	if s.mx != nil {
		s.mx.Counter("llstar_stream_sessions_total").Inc()
	}
	go func() {
		tree, err := s.ip.ParseTokens(s.rule, s.ts)
		s.tree, s.err = tree, err
		close(s.doneCh)
	}()
	s.wait()
	return s, nil
}

// chunkSource adapts the chunk lexer to runtime.TokenSource: when no
// complete token is buffered it parks the parse goroutine until the
// session feeds more input (or finishes, or aborts).
type chunkSource struct{ s *Session }

// NextToken implements runtime.TokenSource. Runs on the parse goroutine.
func (cs chunkSource) NextToken() (token.Token, error) {
	s := cs.s
	for {
		if s.abort {
			return token.Token{Type: token.EOF}, nil
		}
		t, ok, err := s.lx.Next()
		if err != nil {
			return token.Token{}, err
		}
		if ok {
			return t, nil
		}
		s.parked <- struct{}{}
		<-s.wake
	}
}

// wait blocks until the parse goroutine parks or completes.
func (s *Session) wait() {
	select {
	case <-s.parked:
	case <-s.doneCh:
		s.done = true
	}
	if n := len(s.ts.Buffered()); n > s.stats.PeakWindow {
		s.stats.PeakWindow = n
	}
	s.flushEventCount()
}

// emit delivers one event to the sink (parse goroutine only).
func (s *Session) emit(e Event) {
	s.stats.Events++
	if s.opts.Sink != nil {
		s.opts.Sink.Event(e)
	}
}

// sinkListener is the session's probe consumer: committed rule and
// token events and syntax errors become sink events, and it keeps the
// parse's deepest lookahead. Fragment reparses (Edit) repair the
// retained state without replaying rule and token events; errors they
// recover still surface.
type sinkListener struct {
	runtime.NopProbe
	s        *Session
	fragment bool
	maxK     int // deepest lookahead of the current parse
}

func (l *sinkListener) BeginParse(fragment bool) { l.fragment, l.maxK = fragment, 0 }

func (l *sinkListener) Predict(e runtime.Prediction) { l.maxK = max(l.maxK, e.K) }

func (l *sinkListener) EnterRule(_ int, rule string, depth int) {
	if depth == 0 && !l.fragment {
		l.s.emit(Event{Kind: KindRuleEnter, Rule: rule})
	}
}

func (l *sinkListener) ExitRule(_ int, rule string, depth int) {
	if depth == 0 && !l.fragment {
		l.s.emit(Event{Kind: KindRuleExit, Rule: rule})
	}
}

func (l *sinkListener) Token(t token.Token) {
	if !l.fragment {
		l.s.emit(Event{Kind: KindToken, Token: t})
	}
}

func (l *sinkListener) SyntaxError(se *runtime.SyntaxError) {
	l.s.stats.Errors++
	l.s.emit(Event{Kind: KindSyntaxError, Err: &SyntaxError{Offending: se.Offending, Rule: se.Rule, Msg: se.Msg}})
}

// now reads the clock of each span sink.
func (s *Session) now() (t [2]time.Duration) {
	for i, sink := range s.spanSinks {
		if sink != nil {
			t[i] = sink.Now()
		}
	}
	return t
}

// span sends each span sink a stream.* span that began at t0.
func (s *Session) span(name string, t0 [2]time.Duration, n int64, ok bool) {
	for i, sink := range s.spanSinks {
		if sink != nil {
			sink.Emit(obs.Event{
				Name: name, Cat: obs.PhaseStream, Ph: obs.PhSpan,
				TS: t0[i], Dur: sink.Now() - t0[i], Decision: -1,
				Rule: s.rule, N: n, OK: ok,
			})
		}
	}
}

func (s *Session) flushEventCount() {
	if s.mx != nil && s.stats.Events > s.lastEvents {
		s.mx.Counter("llstar_stream_events_total").Add(s.stats.Events - s.lastEvents)
		s.lastEvents = s.stats.Events
	}
}

// Feed hands the session the next chunk of input and blocks until the
// parse has consumed every complete token in it and parked again. It
// returns the terminal parse error as soon as the parse fails (callers
// may stop feeding), ErrTooLarge past the byte cap, or nil.
func (s *Session) Feed(p []byte) error {
	if s.done {
		if s.err != nil {
			return s.err
		}
		return ErrFinished
	}
	if s.opts.MaxBytes > 0 && s.stats.BytesFed+int64(len(p)) > s.opts.MaxBytes {
		return ErrTooLarge
	}
	t0 := s.now()
	s.lx.Feed(p)
	if s.opts.Incremental {
		s.text = append(s.text, p...)
	}
	s.stats.BytesFed += int64(len(p))
	s.stats.Chunks++
	if s.mx != nil {
		s.mx.Counter("llstar_stream_bytes_total").Add(int64(len(p)))
	}
	s.wake <- struct{}{}
	s.wait()
	s.span("stream.feed", t0, int64(len(p)), s.err == nil)
	if s.done && s.err != nil {
		return s.err
	}
	return nil
}

// Finish marks end of input, waits for the parse to complete, and
// returns its verdict. Safe to call once; Feed fails afterwards.
func (s *Session) Finish() error {
	if !s.done {
		s.lx.Finish()
		s.wake <- struct{}{}
		<-s.doneCh
		s.done = true
		if n := len(s.ts.Buffered()); n > s.stats.PeakWindow {
			s.stats.PeakWindow = n
		}
	}
	s.finishStats()
	return s.err
}

// finishStats folds parser results into the session stats and emits the
// stream.parse span; in incremental mode it also captures the state an
// Edit needs.
func (s *Session) finishStats() {
	s.stats.Tokens = s.ts.Size()
	s.maxK = max(s.maxK, s.sink.maxK)
	s.stats.MaxK = s.maxK
	s.flushEventCount()
	if s.opts.Incremental && s.tokens == nil {
		s.tokens = append([]token.Token(nil), s.ts.Buffered()...)
		s.units = s.lx.Units()
		s.memo = s.ip.Memo()
		s.clean = s.err == nil && len(s.ip.Errors()) == 0
	}
	s.span("stream.parse", s.t0, int64(s.stats.Tokens), s.err == nil)
}

// Close aborts an unfinished session, terminating the parse goroutine.
// It returns the session's terminal error, if any.
func (s *Session) Close() error {
	if !s.done {
		s.abort = true
		s.wake <- struct{}{}
		<-s.doneCh
		s.done = true
	}
	return s.err
}

// Err returns the terminal parse error (nil while running or on
// success).
func (s *Session) Err() error { return s.err }

// Done reports whether the parse has completed (successfully or not).
func (s *Session) Done() bool { return s.done }

// Stats returns a snapshot of the session statistics. Valid between
// pumps (the parse goroutine is parked or done whenever the caller has
// control).
func (s *Session) Stats() Stats {
	st := s.stats
	st.MaxK = s.maxK
	return st
}

// Tree returns the retained parse tree (incremental sessions after a
// successful Finish; nil otherwise).
func (s *Session) Tree() *interp.Node { return s.tree }

// Text returns the retained input text (incremental sessions).
func (s *Session) Text() []byte { return s.text }

// Rule returns the session's start rule.
func (s *Session) Rule() string { return s.rule }
