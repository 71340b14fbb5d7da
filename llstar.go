// Package llstar is a parser generator and parsing library implementing
// the LL(*) parsing strategy of Parr & Fisher, "LL(*): The Foundation of
// the ANTLR Parser Generator" (PLDI 2011).
//
// A grammar written in an ANTLR-like meta-language is statically analyzed
// into one lookahead DFA per parsing decision. At parse time decisions
// gracefully throttle up from fixed LL(1) lookahead, to cyclic-DFA
// arbitrary lookahead, to backtracking with packrat memoization — per
// decision and per input. Semantic predicates make recognition
// context-sensitive; embedded actions run un-speculated.
//
// Quickstart:
//
//	g, err := llstar.Load("expr.g", src)
//	p := g.NewParser(llstar.WithTree())
//	tree, err := p.Parse("s", "unsigned int x")
package llstar

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"llstar/internal/codegen"
	"llstar/internal/core"
	"llstar/internal/cover"
	"llstar/internal/grammar"
	"llstar/internal/interp"
	"llstar/internal/meta"
	"llstar/internal/obs"
	"llstar/internal/obs/flight"
	"llstar/internal/runtime"
	"llstar/internal/serde"
	"llstar/internal/token"
)

// Re-exported runtime types. These aliases are the public names for the
// values the parser runtime hands to user code.
type (
	// Tree is a parse-tree node.
	Tree = interp.Node
	// Stats is the per-decision runtime profile of a parse.
	Stats = runtime.ParseStats
	// Hooks binds semantic predicates and actions to Go functions.
	Hooks = runtime.Hooks
	// Context is the state predicates/actions see.
	Context = runtime.Context
	// SyntaxError is a parse error located at its offending token.
	SyntaxError = runtime.SyntaxError
)

// Re-exported observability types. A Tracer receives structured events
// from analysis and parsing; Metrics accumulates counters and bounded
// histograms. See docs/observability.md for the event schema and metric
// names.
type (
	// Tracer receives structured trace events.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// TraceWriter serializes trace events (JSONL or Chrome trace_event
	// format); Close it to flush.
	TraceWriter = obs.TraceWriter
	// Metrics is a registry of counters, gauges, and histograms.
	Metrics = obs.Metrics
)

// Re-exported coverage types. A CoverageProfile is the mergeable
// aggregate of decision-level runtime counters behind WithCoverage;
// CoverageSnapshot is an immutable copy with text/HTML report
// renderers. See docs/observability.md.
type (
	// CoverageProfile accumulates per-rule/per-decision/per-alternative
	// runtime counters; safe for concurrent flush and snapshot.
	CoverageProfile = cover.Profile
	// CoverageSnapshot is an immutable copy of a profile's counters
	// with WriteReport/WriteHotspots/WriteHTML renderers.
	CoverageSnapshot = cover.Snapshot
)

// CoverageStrategy names the prediction-strategy index i of
// CoverageSnapshot.StrategyTotals: "LL(1)", "LL(k)", "cyclic",
// "backtrack".
func CoverageStrategy(i int) string { return cover.Strategy(i).String() }

// Re-exported flight-recorder types. A FlightRecorder is a bounded
// ring of compact records holding the last N runtime events of one
// parse; a FlightCapture freezes that ring (plus request identity and
// a stats summary) when an anomaly trigger fires; a FlightStore is the
// bounded server-wide archive behind GET /debug/flight. See
// docs/observability.md.
type (
	// FlightRecorder is a per-request (or per-parse) bounded event ring.
	FlightRecorder = flight.Recorder
	// FlightCapture is one persisted flight recording.
	FlightCapture = flight.Capture
	// FlightStore is a bounded, concurrency-safe capture archive.
	FlightStore = flight.Store
	// FlightStats is the captured parse's runtime summary.
	FlightStats = flight.Stats
)

// NewFlightRecorder returns a flight recorder retaining the last
// capacity events (a production-sized default if capacity <= 0). Pass
// it to WithFlightRecorder, or attach it to an existing parser between
// parses with Parser.SetFlightRecorder.
func NewFlightRecorder(capacity int) *FlightRecorder { return flight.NewRecorder(capacity) }

// NewFlightStore returns a capture store retaining the newest max
// captures (a production-sized default if max <= 0).
func NewFlightStore(max int) *FlightStore { return flight.NewStore(max) }

// NewJSONLTracer returns a tracer writing one JSON object per line to w.
// Close it after the last parse to flush.
func NewJSONLTracer(w io.Writer) *TraceWriter { return obs.NewJSONL(w) }

// NewChromeTracer returns a tracer writing a Chrome trace_event JSON
// array to w, loadable by chrome://tracing and Perfetto. The file is
// valid only after Close.
func NewChromeTracer(w io.Writer) *TraceWriter { return obs.NewChrome(w) }

// NewMetrics returns an empty metrics registry to pass to WithMetrics
// and LoadOptions.Metrics.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NopTracer returns the no-op tracer. Installing it is free: the
// parser normalizes it away, so it costs exactly as much as no tracer.
func NopTracer() Tracer { return obs.Nop }

// Label renders a metric name with sorted key="value" labels, matching
// the names the parser and pool register (e.g.
// Label("llstar_pool_gets_total", "result", "hit")).
func Label(name string, kv ...string) string { return obs.Label(name, kv...) }

// Grammar is a loaded, validated, and analyzed grammar, ready to make
// parsers. After Load returns, a Grammar is immutable — the ATN,
// lookahead DFAs, and symbol tables are frozen — so one Grammar may be
// shared by any number of goroutines and Parsers simultaneously.
type Grammar struct {
	res      *core.Result
	issues   []grammar.Issue
	warnings []string

	// Load inputs retained for serialization: MarshalAnalysis embeds
	// them in the artifact and Fingerprint derives the cache key from
	// them. sopts holds only the analysis-relevant options (worker
	// count, tracers, and metrics never change analysis output).
	srcName string
	src     string
	sopts   serde.Options
	fp      [32]byte

	// fromCache records whether this grammar skipped live analysis
	// (decoded from an artifact or a cache hit).
	fromCache bool

	// concOnce/concPool lazily initialize the default pool behind
	// ParseConcurrent; concCov optionally instruments that pool with a
	// coverage profile (SetConcurrentCoverage).
	concOnce sync.Once
	concPool *ParserPool
	concCov  *cover.Profile
}

// LoadOptions tune Load.
type LoadOptions struct {
	// RewriteLeftRecursion automatically rewrites immediately
	// left-recursive rules into predicated precedence loops
	// (Section 1.1) instead of rejecting them.
	RewriteLeftRecursion bool
	// AnalysisM overrides the recursion governor m.
	AnalysisM int
	// MaxK forces classic fixed-k lookahead.
	MaxK int
	// Tracer, if set, receives analysis-phase events (ATN construction,
	// per-decision subset construction, fallbacks, warnings).
	Tracer Tracer
	// Metrics, if set, accumulates analysis counters.
	Metrics *Metrics
	// AnalysisWorkers bounds the worker pool building per-decision
	// lookahead DFAs. Decisions are independent, so analysis is
	// embarrassingly parallel; results are assembled deterministically,
	// so any worker count yields byte-identical DFAs, warnings, and
	// fallbacks. 0 means GOMAXPROCS; 1 forces serial analysis.
	AnalysisWorkers int
	// CacheDir, when non-empty, enables the persistent grammar cache:
	// Load first looks for a serialized analysis artifact keyed by the
	// SHA-256 fingerprint of (grammar name, source, analysis options,
	// format version) and, on a hit, skips subset construction
	// entirely; on a miss (or any decode error) it analyzes live and
	// stores the artifact for the next process. See docs/serialization.md.
	CacheDir string
	// CacheMaxBytes caps the total size of CacheDir; when a store
	// pushes the cache over the cap, least-recently written artifacts
	// are evicted. 0 means unlimited.
	CacheMaxBytes int64
}

// Load parses, validates, and analyzes grammar text. name appears in
// error messages (typically the file name).
func Load(name, src string) (*Grammar, error) {
	return LoadWith(name, src, LoadOptions{})
}

// LoadWith is Load with options. With LoadOptions.CacheDir set it
// serves warm loads from the persistent grammar cache, falling through
// to live analysis on any miss or decode problem.
func LoadWith(name, src string, opts LoadOptions) (*Grammar, error) {
	if opts.CacheDir != "" {
		return loadCached(name, src, opts)
	}
	return loadLive(name, src, opts)
}

// loadLive runs the full pipeline: front end plus subset construction.
func loadLive(name, src string, opts LoadOptions) (*Grammar, error) {
	g, issues, err := frontend(name, src, opts)
	if err != nil {
		return nil, err
	}
	res, err := core.Analyze(g, core.Options{
		M:       opts.AnalysisM,
		MaxK:    opts.MaxK,
		Tracer:  opts.Tracer,
		Metrics: opts.Metrics,
		Workers: opts.AnalysisWorkers,
	})
	if err != nil {
		return nil, err
	}
	return wrap(res, issues, name, src, opts), nil
}

// frontend runs the cheap, deterministic phases shared by live and
// warm loads: meta-parse, optional left-recursion rewrite, validation.
func frontend(name, src string, opts LoadOptions) (*grammar.Grammar, []grammar.Issue, error) {
	g, err := meta.Parse(name, src)
	if err != nil {
		return nil, nil, err
	}
	if opts.RewriteLeftRecursion {
		for _, name := range directLeftRecursive(g) {
			if err := grammar.RewriteLeftRecursion(g, name); err != nil {
				return nil, nil, err
			}
		}
	}
	issues := grammar.Validate(g)
	if err := grammar.FirstFatal(issues); err != nil {
		return nil, nil, err
	}
	return g, issues, nil
}

// wrap assembles the public Grammar from an analysis result.
func wrap(res *core.Result, issues []grammar.Issue, name, src string, opts LoadOptions) *Grammar {
	sopts := serdeOptions(opts)
	lg := &Grammar{
		res:     res,
		issues:  issues,
		srcName: name,
		src:     src,
		sopts:   sopts,
		fp:      serde.Fingerprint(name, src, sopts),
	}
	for _, i := range issues {
		lg.warnings = append(lg.warnings, i.String())
	}
	for _, w := range res.Warnings {
		lg.warnings = append(lg.warnings, w.String())
	}
	return lg
}

// serdeOptions projects the analysis-relevant load options into the
// serialization key. Tracers, metrics, and worker counts are excluded:
// none of them changes analysis output.
func serdeOptions(opts LoadOptions) serde.Options {
	return serde.Options{
		RewriteLeftRecursion: opts.RewriteLeftRecursion,
		M:                    opts.AnalysisM,
		MaxK:                 opts.MaxK,
	}
}

// LoadFile loads a grammar from disk.
func LoadFile(path string) (*Grammar, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(path, string(data))
}

// directLeftRecursive lists rules whose own alternatives start with a
// self-reference (candidates for the precedence-loop rewrite).
func directLeftRecursive(g *grammar.Grammar) []string {
	var out []string
	for _, r := range g.Rules {
		for _, alt := range r.Alts {
			if len(alt.Elems) == 0 {
				continue
			}
			if ref, ok := alt.Elems[0].(*grammar.RuleRef); ok && ref.Name == r.Name {
				out = append(out, r.Name)
				break
			}
		}
	}
	return out
}

// Name returns the grammar's declared name.
func (g *Grammar) Name() string { return g.res.Grammar.Name }

// TokenNames returns the grammar's token vocabulary — symbolic names
// and literal spellings ('...'), ordered by token type: TokenNames()[i]
// names type i+1. Diagnostic layers (e.g. the parse service) use it to
// name tokens instead of printing raw type integers.
func (g *Grammar) TokenNames() []string { return g.res.Grammar.Vocab.Names() }

// TokenName returns the symbolic name for a token type: a rule name
// like "ID", a literal spelling like "'int'", "EOF" for end of input,
// and a "<type N>" placeholder for types outside the vocabulary.
func (g *Grammar) TokenName(t int) string { return g.res.Grammar.Vocab.Name(token.Type(t)) }

// Warnings returns validation and analysis diagnostics (non-fatal).
func (g *Grammar) Warnings() []string { return g.warnings }

// AnalysisResult exposes the underlying analysis for advanced callers
// (the benchmark harness, the code generator, tests).
func (g *Grammar) AnalysisResult() *core.Result { return g.res }

// DecisionClass mirrors the Table 1 decision taxonomy.
type DecisionClass string

// Decision classes.
const (
	Fixed     DecisionClass = "fixed"     // acyclic DFA, LL(k)
	Cyclic    DecisionClass = "cyclic"    // cyclic DFA, arbitrary lookahead
	Backtrack DecisionClass = "backtrack" // fails over to speculation
)

// DecisionReport summarizes one analyzed parsing decision.
type DecisionReport struct {
	ID        int
	Rule      string
	Desc      string
	Class     DecisionClass
	FixedK    int // lookahead depth for fixed decisions
	DFAStates int
	Fallback  string // non-empty if analysis fell back (Section 5.4)
}

// Decisions reports every parsing decision's analysis outcome.
func (g *Grammar) Decisions() []DecisionReport {
	out := make([]DecisionReport, 0, len(g.res.Decisions))
	for _, di := range g.res.Decisions {
		r := DecisionReport{
			ID:        di.Decision.ID,
			Rule:      di.Decision.Rule.Name,
			Desc:      di.Decision.Desc,
			FixedK:    di.FixedK,
			DFAStates: di.DFA.NumStates(),
			Fallback:  di.DFA.Fallback,
		}
		switch di.Class {
		case core.ClassFixed:
			r.Class = Fixed
		case core.ClassCyclic:
			r.Class = Cyclic
		default:
			r.Class = Backtrack
		}
		out = append(out, r)
	}
	return out
}

// DecisionProfile is one row of the analysis profile: where analysis
// time and DFA states went for a single parsing decision.
type DecisionProfile struct {
	ID           int
	Rule         string
	Desc         string
	Class        DecisionClass
	DFAStates    int
	ClosureCalls int
	Elapsed      time.Duration
	Fallback     string // non-empty if analysis fell back (Section 5.4)
}

// AnalysisProfile reports per-decision analysis cost (subset
// construction time, closure calls, DFA size), most expensive decision
// first. It answers "where did analysis time go" the way Stats answers
// it for parse time.
func (g *Grammar) AnalysisProfile() []DecisionProfile {
	out := make([]DecisionProfile, 0, len(g.res.Decisions))
	for _, di := range g.res.Decisions {
		p := DecisionProfile{
			ID:           di.Decision.ID,
			Rule:         di.Decision.Rule.Name,
			Desc:         di.Decision.Desc,
			Class:        DecisionClass(di.Class.String()),
			DFAStates:    di.DFA.NumStates(),
			ClosureCalls: di.ClosureCalls,
			Elapsed:      di.Elapsed,
			Fallback:     di.DFA.Fallback,
		}
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Elapsed > out[j].Elapsed })
	return out
}

// NewCoverage returns an empty coverage profile shaped for this
// grammar: one slot per parsing decision (with its alternative count
// and DFA size) and per parser rule. Pass it to WithCoverage on any
// number of parsers or pools; decision and DFA state IDs are stable
// across loads of the same source, so profiles from different
// processes are directly comparable and mergeable.
func (g *Grammar) NewCoverage() *CoverageProfile {
	meta := cover.Meta{Grammar: g.Name()}
	for _, r := range g.res.Grammar.Rules {
		meta.Rules = append(meta.Rules, r.Name)
	}
	for _, di := range g.res.Decisions {
		meta.Decisions = append(meta.Decisions, cover.DecisionMeta{
			ID:        di.Decision.ID,
			Rule:      di.Decision.Rule.Name,
			Desc:      di.Decision.Desc,
			Class:     di.Class.String(),
			NAlts:     di.Decision.NAlts,
			DFAStates: di.DFA.NumStates(),
		})
	}
	return cover.NewProfile(meta)
}

// Summary renders a one-line analysis summary (the Table 1 row for this
// grammar).
func (g *Grammar) Summary() string {
	var fixed, cyclic, back int
	for _, d := range g.Decisions() {
		switch d.Class {
		case Fixed:
			fixed++
		case Cyclic:
			cyclic++
		default:
			back++
		}
	}
	n := len(g.res.Decisions)
	return fmt.Sprintf("%s: %d decisions: %d fixed, %d cyclic, %d backtrack (%.1f%%), analysis %v",
		g.Name(), n, fixed, cyclic, back, pct(back, n), g.res.Elapsed)
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// DotDFA renders a decision's lookahead DFA in Graphviz format.
func (g *Grammar) DotDFA(decision int) (string, error) {
	if decision < 0 || decision >= len(g.res.DFAs) {
		return "", fmt.Errorf("llstar: no decision %d", decision)
	}
	return g.res.DFAs[decision].Dot(g.res.Grammar.Vocab), nil
}

// DotATN renders a rule's ATN submachine (all rules if ruleName is "").
func (g *Grammar) DotATN(ruleName string) string {
	return g.res.Machine.Dot(ruleName)
}

// GenerateGo emits a self-contained Go source file implementing a
// recursive-descent LL(*) parser for the grammar (lexer tables, lookahead
// DFA tables, one method per rule). pkg is the generated package name.
func (g *Grammar) GenerateGo(pkg string) ([]byte, error) {
	return codegen.Generate(g.res, codegen.Options{Package: pkg})
}

// Parser wraps the grammar interpreter with a stable public surface.
//
// A Parser carries strictly per-parse mutable state (memo table, stats,
// speculation stack, recovered errors), reset at the start of every
// Parse, so one instance can serve many sequential parses. A returned
// tree belongs to the caller: later parses never write to it. It must be
// used by one goroutine at a time; for concurrent parsing share the
// immutable Grammar and give each goroutine its own Parser, or use a
// ParserPool / Grammar.ParseConcurrent (see docs/concurrency.md).
type Parser struct {
	g  *Grammar
	ip *interp.Parser

	// The parser's probe consumers: stats backs Stats (nil without
	// WithStats), and base joins every construction-time consumer.
	// flight seats an attached flight recorder and withFlight joins it
	// beside base; both are built on the first attach and kept.
	stats      *Stats
	base       runtime.Probe
	flight     *flight.Probe
	withFlight runtime.Probe
}

// ParserOption configures NewParser.
type ParserOption func(*parserConfig)

// parserConfig is what the options set: interpreter options plus the
// probe consumers NewParser installs.
type parserConfig struct {
	interp.Options
	stats         bool
	tracer        Tracer
	flight        *FlightRecorder
	metrics       *Metrics
	coverage      *CoverageProfile
	errorListener func(*SyntaxError)
}

func configure(opts []ParserOption) parserConfig {
	var c parserConfig
	for _, fn := range opts {
		fn(&c)
	}
	return c
}

// WithTree enables parse-tree construction.
func WithTree() ParserOption { return func(o *parserConfig) { o.BuildTree = true } }

// WithStats enables runtime decision profiling.
func WithStats() ParserOption { return func(o *parserConfig) { o.stats = true } }

// WithHooks binds semantic predicates and actions.
func WithHooks(h Hooks) ParserOption { return func(o *parserConfig) { o.Hooks = h } }

// WithState sets the initial user state visible to predicates/actions.
func WithState(s any) ParserOption { return func(o *parserConfig) { o.State = s } }

// WithMemoize overrides the grammar's memoize option.
func WithMemoize(on bool) ParserOption {
	return func(o *parserConfig) { v := on; o.Memoize = &v }
}

// WithTracer streams structured runtime events (prediction spans with
// throttle level and lookahead depth, speculation, memoization, error
// recovery) to t. Passing nil or NopTracer() costs nothing.
func WithTracer(t Tracer) ParserOption { return func(o *parserConfig) { o.tracer = t } }

// WithMetrics accumulates runtime counters and histograms into m, once
// per parse; one registry may be shared across parsers and with
// LoadOptions.Metrics.
func WithMetrics(m *Metrics) ParserOption { return func(o *parserConfig) { o.metrics = m } }

// WithFlightRecorder records the parser's runtime events into r — a
// bounded last-N-events ring — alongside any tracer the parser has,
// composing with WithTracer in either order. Passing nil installs
// nothing.
func WithFlightRecorder(r *FlightRecorder) ParserOption {
	return func(o *parserConfig) {
		if r != nil {
			o.flight = r
		}
	}
}

// WithCoverage accumulates decision-level coverage and hotspot
// counters into p (create one with Grammar.NewCoverage). The parser
// records into a private recorder and merges once per parse, so one
// profile may be shared across parsers, pools, and goroutines. Nil
// installs nothing.
func WithCoverage(p *CoverageProfile) ParserOption {
	return func(o *parserConfig) { o.coverage = p }
}

// WithApproxLLK switches to ANTLR-v2-style linear approximate LL(k)
// prediction (the Section 6.2 baseline).
func WithApproxLLK(k int) ParserOption { return func(o *parserConfig) { o.ApproxK = k } }

// WithErrorListener observes syntax errors as they surface.
func WithErrorListener(l func(*SyntaxError)) ParserOption {
	return func(o *parserConfig) { o.errorListener = l }
}

// WithRecovery enables error recovery: failed matches try single-token
// deletion/insertion and failed predictions resync, the parse continues,
// and Errors() reports everything found (up to maxErrors; 0 means 10).
func WithRecovery(maxErrors int) ParserOption {
	return func(o *parserConfig) {
		o.Recover = true
		o.MaxErrors = maxErrors
	}
}

// NewParser returns a parser for the grammar. Every observing option
// installs one consumer of the interpreter's probe; with none the probe
// is nil and costs one nil check per instrumentation site.
func (g *Grammar) NewParser(opts ...ParserOption) *Parser {
	c := configure(opts)
	p := &Parser{g: g}
	var probes []runtime.Probe
	if c.stats {
		p.stats = interp.NewStats(g.res)
		probes = append(probes, p.stats.Probe())
	}
	if c.coverage != nil {
		probes = append(probes, c.coverage.NewRecorder())
	}
	if c.metrics != nil {
		probes = append(probes, obs.NewMetricsProbe(c.metrics, interp.Throttles(g.res)))
	}
	if c.errorListener != nil {
		probes = append(probes, runtime.ErrorListener(c.errorListener).Probe())
	}
	if tr := obs.Active(c.tracer); tr != nil {
		probes = append(probes, obs.NewTraceProbe(tr, interp.Throttles(g.res)))
	}
	p.base = runtime.JoinProbes(probes...)
	c.Probe = p.base
	p.ip = interp.New(g.res, c.Options)
	if c.flight != nil {
		p.SetFlightRecorder(c.flight)
	}
	return p
}

// Parse parses input starting at rule startRule (the grammar's first rule
// if empty), requiring the whole input to be consumed. Each call is an
// independent parse: per-parse state is reset, while lazily built
// lookahead tables carry over between calls.
func (p *Parser) Parse(startRule, input string) (*Tree, error) {
	if startRule == "" {
		start := p.g.res.Grammar.Start()
		if start == nil {
			return nil, fmt.Errorf("llstar: grammar %s has no parser rules", p.g.Name())
		}
		startRule = start.Name
	}
	return p.ip.ParseString(startRule, input)
}

// SetFlightRecorder attaches (or, with nil, detaches) a flight
// recorder between parses, alongside the parser's construction-time
// consumers. This is how the parse service rides a request-scoped ring
// on a pooled parser: attach after checkout, detach before returning
// the parser to its pool. Only the first attach allocates. Detached,
// the parser's probe is exactly its construction-time one.
func (p *Parser) SetFlightRecorder(r *FlightRecorder) {
	if r == nil {
		if p.flight != nil {
			p.flight.Attach(nil)
		}
		p.ip.SetProbe(p.base)
		return
	}
	if p.flight == nil {
		p.flight = flight.NewProbe(interp.Throttles(p.g.res))
		p.withFlight = runtime.JoinProbes(p.base, p.flight)
	}
	p.flight.Attach(r)
	p.ip.SetProbe(p.withFlight)
}

// Errors returns the syntax errors recovered during the most recent
// Parse (WithRecovery mode; empty otherwise).
func (p *Parser) Errors() []*SyntaxError { return p.ip.Errors() }

// Stats returns the profile of the most recent Parse (nil without
// WithStats).
func (p *Parser) Stats() *Stats { return p.stats }
