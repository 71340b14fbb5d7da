// Package server is the llstar parse service: a stdlib-only net/http
// server exposing grammars from a directory over a JSON API, built on
// the facade's concurrency primitives (shared immutable Grammars,
// ParserPool) and observability (obs.Metrics, obs.Tracer).
//
// Endpoints:
//
//	POST /v1/parse                   parse one input           (JSON in/out)
//	POST /v1/parse?stream=events     streaming parse: raw body in, NDJSON SAX events out
//	POST /v1/batch                   parse many inputs         (bounded worker fan-out)
//	POST /v1/sessions                create an incremental parse session
//	GET/DELETE /v1/sessions/{id}     inspect / close a session
//	POST /v1/sessions/{id}/edit      apply a text edit, incremental reparse
//	GET  /v1/grammars                registry listing with analysis digests (+ fleet owners)
//	GET  /v1/cluster                 fleet topology: ring, peer health, grammar placement
//	GET  /v1/artifacts/{fp}          raw .llsc artifact bytes from the shared cache
//	GET  /healthz                    liveness (always 200 while the process serves)
//	GET  /readyz                     readiness (200 only after preloads, 503 draining; fleet: + ring/quorum)
//	GET  /metrics                    Prometheus text exposition
//
// Introspection (Config.Debug on the main handler, or DebugHandler()
// on a private listener):
//
//	GET /debug/coverage              live per-grammar coverage/hotspot profiles (JSON or ?format=html)
//	GET /debug/vars                  expvar-style metrics JSON
//	GET /debug/pprof/*               net/http/pprof
//	GET /debug/fleet                 fleet-merged metrics/topology (JSON, ?format=prom, ?format=html dashboard)
//	GET /debug/events                bounded fleet event log (health flips, reloads, artifact fetches)
//	GET /debug/flight/by-trace/{id}  every flight capture for a trace id, fleet-wide
//
// Every request carries an X-Request-Id (client-supplied or generated):
// echoed on the response, embedded in error JSON, attached to the
// server.<endpoint> trace span, and printed with panic logs.
//
// Robustness: a global in-flight limiter sheds load with 429 +
// Retry-After once MaxInFlight parses are running and the queue wait is
// exhausted; request bodies are capped; every parse runs under a
// per-request timeout; handler panics become JSON 500s; StartDrain
// flips /readyz to 503 so load balancers stop sending while
// http.Server.Shutdown drains in-flight requests. See docs/server.md.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llstar"
	"llstar/internal/cluster"
	"llstar/internal/obs"
	"llstar/internal/obs/flight"
)

// Config tunes a Server. The zero value of every limit picks a
// production-safe default.
type Config struct {
	// GrammarDir is the directory of .g / .llsc files served by name.
	GrammarDir string
	// CacheDir enables the persistent analysis cache for source-grammar
	// loads (LoadOptions.CacheDir); CacheMaxBytes caps it.
	CacheDir      string
	CacheMaxBytes int64
	// RewriteLeftRecursion applies the Section 1.1 precedence-loop
	// rewrite to directly left-recursive rules at load.
	RewriteLeftRecursion bool
	// AnalysisWorkers bounds parallel per-decision DFA construction.
	AnalysisWorkers int
	// Preload lists grammar names to load before the server reports
	// ready; the single name "all" (or "*") preloads the whole
	// directory.
	Preload []string

	// MaxInFlight caps concurrently executing parse/batch requests
	// (default 64). MaxInFlight < 0 disables the limiter.
	MaxInFlight int
	// QueueWait is how long a request may wait for an in-flight slot
	// before being shed with 429 (default 100ms; negative means shed
	// immediately).
	QueueWait time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds each parse (default 10s). A request that
	// exceeds it gets a 504; the abandoned parse finishes in the
	// background and its parser returns to the pool.
	RequestTimeout time.Duration
	// BatchWorkers bounds the per-request worker pool fanning a batch
	// across parsers (default GOMAXPROCS).
	BatchWorkers int
	// MaxBatchItems caps inputs per batch request (default 256).
	MaxBatchItems int

	// MaxStreamBytes caps the raw request body of the streaming parse
	// endpoint (POST /v1/parse?stream=events), which is exempt from
	// MaxBodyBytes because bounded streaming memory is its whole point
	// (default 64 MiB; < 0 disables the cap).
	MaxStreamBytes int64
	// MaxSessions caps live incremental sessions (default 64). When the
	// table is full, creating a session evicts sessions idle longer than
	// SessionIdle; if none qualify the request is shed with 429.
	MaxSessions int
	// SessionIdle is how long a session may sit unused before it becomes
	// evictable (default 5m).
	SessionIdle time.Duration
	// MaxSessionBytes caps each session's retained document, and with it
	// the /v1/sessions request bodies (default 4 MiB). An edit that would
	// grow the document past the cap answers 413.
	MaxSessionBytes int64

	// Debug mounts the introspection endpoints (/debug/coverage,
	// /debug/flight, /debug/vars, /debug/pprof/*) on the main handler.
	// Regardless of this flag they are always reachable through
	// DebugHandler(), which a deployment can bind to a private listener.
	Debug bool
	// DisableCoverage turns off the per-grammar coverage profiler
	// behind /debug/coverage. The zero value keeps it on: the recorder
	// costs a few percent of parse time and makes every served grammar
	// introspectable.
	DisableCoverage bool

	// DisableFlight turns off the per-request flight recorder. The zero
	// value keeps it on: every /v1/parse rides a bounded last-N-events
	// ring, and an anomalous request (slow, 5xx/504, panicked, or over
	// its speculation budget) persists its full timeline to a bounded
	// capture store served at /debug/flight. With the recorder off the
	// parse hot path is back to a single nil-tracer check.
	DisableFlight bool
	// FlightSlow is the latency anomaly threshold (default 500ms; < 0
	// disarms the latency trigger entirely).
	FlightSlow time.Duration
	// FlightEvents is the per-request ring capacity (default 256).
	FlightEvents int
	// FlightCaptures bounds the server-wide capture store (default 64).
	FlightCaptures int
	// FlightBacktrackTokens arms the wasted-work trigger: a parse whose
	// speculation consumed (and rewound) at least this many tokens is
	// captured even if it finished fast and 200. 0 leaves it disarmed.
	FlightBacktrackTokens int64

	// EventLogSize bounds the fleet event log behind /debug/events
	// (health flips, reloads, serve-stale fallbacks, artifact fetches).
	// 0 picks obs.DefaultEventLogSize; < 0 disables the log entirely.
	EventLogSize int
	// FleetTimeout bounds each per-peer fan-out request the fleet debug
	// endpoints (/debug/fleet, /debug/flight/by-trace) make; a peer that
	// misses it degrades to a partial result, never an error (default 2s).
	FleetTimeout time.Duration

	// Logger receives the server's structured log records (one
	// per-request access line plus panics, flight captures, and
	// lifecycle events), each carrying request_id, trace_id, grammar,
	// endpoint, status, and dur_ms where applicable. Nil means
	// slog.Default().
	Logger *slog.Logger

	// Metrics receives llstar_server_* series plus everything the
	// facade records (pool, cache, runtime counters). Created if nil.
	Metrics *obs.Metrics
	// Tracer, if set, receives a server.<endpoint> span per request and
	// all analysis/runtime events from loads and parses.
	Tracer obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchItems == 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxStreamBytes == 0 {
		c.MaxStreamBytes = 64 << 20
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.SessionIdle == 0 {
		c.SessionIdle = 5 * time.Minute
	}
	if c.MaxSessionBytes == 0 {
		c.MaxSessionBytes = 4 << 20
	}
	if c.FlightSlow == 0 {
		c.FlightSlow = 500 * time.Millisecond
	}
	if c.FlightEvents <= 0 {
		c.FlightEvents = flight.DefaultEvents
	}
	if c.FlightCaptures <= 0 {
		c.FlightCaptures = flight.DefaultCaptures
	}
	if c.FleetTimeout == 0 {
		c.FleetTimeout = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// durationBuckets are the histogram bounds (microseconds) for the
// request-duration and queue-wait series.
var durationBuckets = []int64{
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
}

// Server is the parse service. Construct with New, then serve
// Handler() with any http.Server. A Server reports ready only after
// Preload has completed; StartDrain begins a graceful shutdown.
type Server struct {
	cfg     Config
	reg     *Registry
	mx      *obs.Metrics
	tr      obs.Tracer
	log     *slog.Logger
	slots   chan struct{}
	ready   atomic.Bool
	drain   atomic.Bool
	handler http.Handler
	debug   http.Handler

	// flight is the bounded capture store behind /debug/flight (nil
	// when Config.DisableFlight); ftrig decides which requests persist
	// a capture, and fpool recycles the per-request event rings.
	flight *flight.Store
	ftrig  flight.Trigger
	fpool  sync.Pool

	// sessions is the bounded table of live incremental parse sessions
	// behind /v1/sessions.
	sessions *sessionTable

	// events is the bounded fleet event log behind /debug/events (nil
	// when Config.EventLogSize < 0). The registry and — via EventLog()
	// at cluster construction — the prober write into it; nothing on
	// the parse hot path does.
	events *obs.EventLog

	// cl is the fleet view (AttachCluster); nil in single-node mode.
	// In fleet mode the limiter switches from the fixed channel to the
	// dynamic dynFlight/dynLimit pair, whose limit tracks this
	// replica's share of the fleet-wide in-flight budget.
	cl        atomic.Pointer[cluster.Cluster]
	dynFlight atomic.Int64
	dynLimit  atomic.Int64
}

// New validates cfg and builds a Server. The server is not ready until
// Preload is called (with an empty preload list it merely flips
// readiness).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.GrammarDir == "" {
		return nil, fmt.Errorf("server: Config.GrammarDir is required")
	}
	st, err := os.Stat(cfg.GrammarDir)
	if err != nil {
		return nil, fmt.Errorf("server: grammar dir: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("server: grammar dir %q is not a directory", cfg.GrammarDir)
	}
	lopts := llstar.LoadOptions{
		RewriteLeftRecursion: cfg.RewriteLeftRecursion,
		AnalysisWorkers:      cfg.AnalysisWorkers,
		CacheDir:             cfg.CacheDir,
		CacheMaxBytes:        cfg.CacheMaxBytes,
		Tracer:               cfg.Tracer,
		Metrics:              cfg.Metrics,
	}
	s := &Server{
		cfg: cfg,
		reg: NewRegistry(cfg.GrammarDir, lopts, cfg.Metrics),
		mx:  cfg.Metrics,
		tr:  obs.Active(cfg.Tracer),
		log: cfg.Logger,
	}
	s.reg.DisableCoverage = cfg.DisableCoverage
	if cfg.MaxInFlight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	if !cfg.DisableFlight {
		s.flight = flight.NewStore(cfg.FlightCaptures)
		s.ftrig = flight.Trigger{
			Slow:            cfg.FlightSlow,
			MinStatus:       http.StatusInternalServerError,
			BacktrackTokens: cfg.FlightBacktrackTokens,
		}
		if cfg.FlightSlow < 0 {
			s.ftrig.Slow = 0
		}
		s.fpool.New = func() any { return flight.NewRecorder(cfg.FlightEvents) }
	}
	if cfg.EventLogSize >= 0 {
		s.events = obs.NewEventLog(cfg.EventLogSize)
		s.reg.Events = s.events
	}
	s.sessions = newSessionTable(cfg.MaxSessions, cfg.SessionIdle)
	s.debug = s.debugMux()
	s.handler = s.routes()
	return s, nil
}

// Registry exposes the grammar registry (the CLI and tests use it).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Metrics { return s.mx }

// FlightStore returns the anomaly capture store behind /debug/flight,
// or nil when Config.DisableFlight turned the recorder off.
func (s *Server) FlightStore() *flight.Store { return s.flight }

// EventLog returns the fleet event log behind /debug/events (nil when
// Config.EventLogSize < 0). Pass it as cluster.Config.Events so probe
// flips and artifact fetches land on the same timeline as reloads.
func (s *Server) EventLog() *obs.EventLog { return s.events }

// Handler returns the root handler (all endpoints plus middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// DebugHandler returns just the introspection endpoints
// (/debug/coverage, /debug/vars, /debug/pprof/*), for serving on a
// separate — typically private — listener. It is available even when
// Config.Debug left them off the main handler.
func (s *Server) DebugHandler() http.Handler { return s.debug }

// Preload loads cfg.Preload (plus any extra names) and then marks the
// server ready. It is the readiness gate: call it even with nothing to
// preload.
func (s *Server) Preload(extra ...string) error {
	names := append(append([]string{}, s.cfg.Preload...), extra...)
	if err := s.reg.Preload(names); err != nil {
		return err
	}
	s.ready.Store(true)
	return nil
}

// Ready reports whether preloads completed and the server is not
// draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.drain.Load() }

// StartDrain marks the server draining: /readyz turns 503 so load
// balancers stop routing here, while in-flight (and even new) requests
// keep being served. Pair it with http.Server.Shutdown, which stops the
// listener and waits for in-flight requests.
func (s *Server) StartDrain() { s.drain.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.drain.Load() }

// InFlight returns the number of limiter slots currently held.
func (s *Server) InFlight() int {
	if s.slots == nil {
		return 0
	}
	return len(s.slots)
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// /v1/parse dispatches on ?stream=events before the middleware runs
	// so the streaming variant gets its own endpoint label and the wider
	// MaxStreamBytes body cap.
	parseJSON := s.instrument("parse", true, s.cfg.MaxBodyBytes, s.handleParse)
	parseStream := s.instrument("parse_stream", true, s.cfg.MaxStreamBytes, s.handleParseStream)
	// Fleet routing runs before the limiter: a request proxied to its
	// owner counts against the owner's in-flight budget, not this
	// replica's.
	mux.Handle("/v1/parse", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("stream") == "events" {
			if s.maybeProxyStream(w, r) {
				return
			}
			parseStream.ServeHTTP(w, r)
			return
		}
		if s.maybeProxyJSON(w, r, s.cfg.MaxBodyBytes) {
			return
		}
		parseJSON.ServeHTTP(w, r)
	}))
	batch := s.instrument("batch", true, s.cfg.MaxBodyBytes, s.handleBatch)
	mux.Handle("/v1/batch", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.maybeProxyJSON(w, r, s.cfg.MaxBodyBytes) {
			return
		}
		batch.ServeHTTP(w, r)
	}))
	mux.Handle("/v1/grammars", s.instrument("grammars", false, s.cfg.MaxBodyBytes, s.handleGrammars))
	// Session bodies carry whole documents, so they get the session cap
	// rather than MaxBodyBytes. Creation is always local (the id is
	// minted self-owned); per-session requests route by the id's ring
	// owner, which is the replica holding the state.
	mux.Handle("/v1/sessions", s.instrument("sessions", true, s.cfg.MaxSessionBytes, s.handleSessions))
	session := s.instrument("sessions", true, s.cfg.MaxSessionBytes, s.handleSession)
	mux.Handle("/v1/sessions/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.maybeProxySession(w, r) {
			return
		}
		session.ServeHTTP(w, r)
	}))
	mux.Handle("/v1/cluster", s.instrument("cluster", false, s.cfg.MaxBodyBytes, s.handleCluster))
	mux.Handle("/v1/artifacts/", s.instrument("artifacts", false, s.cfg.MaxBodyBytes, s.handleArtifact))
	if s.cfg.Debug {
		mux.Handle("/debug/", s.debug)
	}
	return s.requestID(s.recoverPanics(mux))
}

// statusWriter captures the response code for metrics and tracing,
// plus per-request correlation fields the access log needs (the
// handler fills grammar in as soon as it decodes the request body).
type statusWriter struct {
	http.ResponseWriter
	code    int
	grammar string
	reqID   string
	traceID string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps an endpoint with the shared middleware: in-flight
// limiting (limited endpoints only), the endpoint's body cap, request
// metrics, and a per-request trace span.
func (s *Server) instrument(endpoint string, limited bool, bodyCap int64, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var ts0 time.Duration
		if s.tr != nil {
			ts0 = s.tr.Now()
		}
		rec := &statusWriter{
			ResponseWriter: w,
			reqID:          w.Header().Get(requestIDHeader),
			traceID:        traceIDFrom(w.Header().Get(traceparentHeader)),
		}
		if limited {
			wait, release, ok := s.acquire(r.Context())
			if !ok {
				rec.Header().Set("Retry-After", "1")
				s.countError(endpoint, "overload")
				writeError(rec, http.StatusTooManyRequests,
					fmt.Sprintf("overloaded: %d requests in flight; retry", s.cfg.MaxInFlight))
				s.finish(endpoint, rec, start, ts0)
				return
			}
			if release != nil {
				s.mx.Histogram("llstar_server_queue_wait_us", durationBuckets...).Observe(wait.Microseconds())
				defer release()
			}
		}
		if bodyCap > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, bodyCap)
		}
		h(rec, r)
		s.finish(endpoint, rec, start, ts0)
	})
}

// finish records the per-request metrics, trace span, and structured
// access-log line. The span Detail and the log line carry the same
// request_id / trace_id pair the response headers echo, so a timeline
// span, a log record, and a flight capture can be joined on either.
func (s *Server) finish(endpoint string, rec *statusWriter, start time.Time, ts0 time.Duration) {
	code := rec.code
	if code == 0 {
		code = http.StatusOK
	}
	dur := time.Since(start)
	s.mx.Counter(obs.Label("llstar_server_requests_total",
		"endpoint", endpoint, "code", strconv.Itoa(code))).Inc()
	s.mx.Histogram("llstar_server_request_duration_us", durationBuckets...).Observe(dur.Microseconds())
	// Per-endpoint/per-grammar latency distribution: the series the
	// fleet dashboard merges into its p50/p95/p99 view. Grammar is ""
	// for endpoints with no grammar (metrics, cluster, ...).
	s.mx.Histogram(obs.Label("llstar_server_latency_us",
		"endpoint", endpoint, "grammar", rec.grammar), durationBuckets...).Observe(dur.Microseconds())
	if s.tr != nil {
		s.tr.Emit(obs.Event{
			Name: "server." + endpoint, Cat: obs.PhaseServer, Ph: obs.PhSpan,
			TS: ts0, Dur: s.tr.Now() - ts0, Decision: -1,
			OK: code < 400, N: int64(code),
			Detail: rec.reqID + " " + rec.traceID,
		})
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("endpoint", endpoint),
		slog.Int("status", code),
		slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
		slog.String("request_id", rec.reqID),
		slog.String("trace_id", rec.traceID),
		slog.String("grammar", rec.grammar),
	)
}

func (s *Server) countError(endpoint, kind string) {
	s.mx.Counter(obs.Label("llstar_server_errors_total", "endpoint", endpoint, "kind", kind)).Inc()
}

// acquire takes an in-flight slot, waiting up to QueueWait. It reports
// the time spent queued, the matching release function (nil when the
// limiter is disabled), and whether a slot was obtained. The release
// is returned rather than looked up later so a request admitted just
// before AttachCluster flips the limiter still releases the slot it
// actually took.
func (s *Server) acquire(ctx context.Context) (time.Duration, func(), bool) {
	if s.slots == nil {
		return 0, nil, true
	}
	if s.cl.Load() != nil {
		wait, ok := s.acquireDynamic(ctx)
		if !ok {
			return wait, nil, false
		}
		return wait, s.releaseDynamic, true
	}
	gauge := s.mx.Gauge("llstar_server_inflight")
	release := func() {
		<-s.slots
		gauge.Add(-1)
	}
	select {
	case s.slots <- struct{}{}:
		gauge.Add(1)
		return 0, release, true
	default:
	}
	if s.cfg.QueueWait <= 0 {
		return 0, nil, false
	}
	start := time.Now()
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		gauge.Add(1)
		return time.Since(start), release, true
	case <-t.C:
		return time.Since(start), nil, false
	case <-ctx.Done():
		return time.Since(start), nil, false
	}
}

// recoverPanics turns a handler panic into a JSON 500 instead of
// killing the connection (and, under http.Server, the goroutine).
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.countError(r.URL.Path, "panic")
				s.log.LogAttrs(r.Context(), slog.LevelError, "panic",
					slog.String("endpoint", r.URL.Path),
					slog.String("method", r.Method),
					slog.String("request_id", w.Header().Get(requestIDHeader)),
					slog.String("trace_id", traceIDFrom(w.Header().Get(traceparentHeader))),
					slog.Any("panic", v),
					slog.String("stack", string(debugStack())),
				)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// debugStack trims the recover frames off a stack dump so the panic
// site leads.
func debugStack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// requestIDHeader carries the correlation id: clients may supply one;
// the server generates one otherwise, echoes it on every response, and
// threads it through trace spans, error JSON, and panic logs.
const requestIDHeader = "X-Request-Id"

// traceparentHeader is the W3C Trace Context header
// (https://www.w3.org/TR/trace-context/): version-traceid-parentid-flags.
// The server accepts a valid incoming traceparent, generates one
// otherwise, and echoes it so callers and downstream systems correlate
// on the same trace id.
const traceparentHeader = "Traceparent"

// requestID is the outermost middleware: it stamps the sanitized (or
// generated) id — and a W3C traceparent — on both the request and the
// response header before any handler, including the panic recoverer,
// can write, so every error path sees them.
func (s *Server) requestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(requestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		r.Header.Set(requestIDHeader, id)
		w.Header().Set(requestIDHeader, id)

		traceID, ok := parseTraceparent(r.Header.Get(traceparentHeader))
		var tp string
		if ok {
			// Inbound context is valid: keep its trace id, mint a new
			// parent id for the server's own span in that trace.
			tp = "00-" + traceID + "-" + randHex(16) + "-01"
		} else {
			// Missing or malformed: start a fresh trace.
			traceID = randHex(32)
			tp = "00-" + traceID + "-" + randHex(16) + "-01"
		}
		r.Header.Set(traceparentHeader, tp)
		w.Header().Set(traceparentHeader, tp)
		next.ServeHTTP(w, r)
	})
}

// parseTraceparent validates a W3C traceparent header and extracts its
// 32-hex-digit trace id. Invalid input — wrong shape, non-hex digits,
// all-zero trace or parent id, or the reserved version ff — reports
// !ok so the caller falls back to generating a fresh trace.
func parseTraceparent(h string) (traceID string, ok bool) {
	// 00-{32 hex traceid}-{16 hex parentid}-{2 hex flags} = 55 bytes.
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	for i := 0; i < len(h); i++ {
		if i == 2 || i == 35 || i == 52 {
			continue
		}
		c := h[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", false
		}
	}
	if h[0] == 'f' && h[1] == 'f' {
		return "", false
	}
	traceID = h[3:35]
	if traceID == "00000000000000000000000000000000" {
		return "", false
	}
	if h[36:52] == "0000000000000000" {
		return "", false
	}
	return traceID, true
}

// traceIDFrom extracts the trace id from an already-normalized
// traceparent header (one the middleware wrote); it returns "" for
// anything else.
func traceIDFrom(h string) string {
	if len(h) != 55 {
		return ""
	}
	return h[3:35]
}

// randHex returns n lowercase hex digits of cryptographic randomness
// (n must be even). On rand failure it degrades to all-zero digits —
// never to a panic on the request path.
func randHex(n int) string {
	b := make([]byte, n/2)
	if _, err := rand.Read(b); err != nil {
		return hex.EncodeToString(b) // zeroed: correlate as "unknown"
	}
	return hex.EncodeToString(b)
}

// sanitizeRequestID accepts client-supplied ids only when they are
// short and header/log-safe; anything else is discarded so a hostile
// id cannot smuggle bytes into logs or responses.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return ""
		}
	}
	return id
}

// newRequestID returns a fresh 16-hex-digit id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000" // rand failure: correlate as "unknown"
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.drain.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "loading")
	default:
		if c := s.cluster(); c != nil {
			// Fleet mode: readiness stays local (this replica can serve
			// any grammar), but the line carries the peer view so load
			// balancers and the CI smoke can see ring health at a glance.
			t := c.Topology()
			fmt.Fprintf(w, "ready ring=%d up=%d quorum=%v\n", t.RingSize, t.Up, t.Quorum)
			return
		}
		fmt.Fprintln(w, "ready")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.mx.WritePrometheus(w); err != nil {
		s.countError("metrics", "write")
	}
}
