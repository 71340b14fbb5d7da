package core

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"llstar/internal/atn"
	"llstar/internal/dfa"
	"llstar/internal/grammar"
	"llstar/internal/obs"
	"llstar/internal/runtime"
)

// Options tune the analysis.
type Options struct {
	// M is the recursion-depth governor m (Section 5.3). 0 uses the
	// grammar's option, which itself defaults to grammar.DefaultM.
	M int
	// MaxDFAStates caps DFA states per decision (the paper's "land-mine"
	// escape hatch); exceeding it falls back to LL(1)+backtracking.
	// 0 means DefaultMaxDFAStates.
	MaxDFAStates int
	// MaxK, when > 0, caps lookahead depth at a fixed k (classic LL(k)
	// mode). 0 uses the grammar option (0 = unbounded LL(*)).
	MaxK int
	// Tracer, if set, receives structured analysis events: the overall
	// analysis span, ATN construction, one dfa.construct span per
	// decision, and instants for warnings and Section 5.4 fallbacks.
	Tracer obs.Tracer
	// Metrics, if set, accumulates analysis counters (decision classes,
	// DFA states, closure calls, fallbacks, warnings by kind).
	Metrics *obs.Metrics
	// Workers bounds the worker pool that constructs per-decision
	// lookahead DFAs. Decisions are mutually independent (each runs the
	// Algorithms 8–11 subset construction against read-only ATN and
	// FIRST-set data), so they parallelize freely; results are assembled
	// in decision order, so the output is byte-identical to a serial
	// run. 0 means GOMAXPROCS; 1 forces the serial path.
	Workers int
}

// DefaultMaxDFAStates bounds DFA construction per decision.
const DefaultMaxDFAStates = 4000

// WarningKind classifies analysis diagnostics.
type WarningKind int

const (
	// WarnAmbiguity: the decision can match the same input with multiple
	// productions; resolved in favor of the lowest-numbered one.
	WarnAmbiguity WarningKind = iota
	// WarnRecursionOverflow: closure hit the recursion governor m and the
	// state may predict multiple alternatives.
	WarnRecursionOverflow
	// WarnNonLLRegular: recursion in more than one alternative; DFA
	// construction was aborted (Section 5.4).
	WarnNonLLRegular
	// WarnResourceLimit: DFA construction exceeded MaxDFAStates.
	WarnResourceLimit
	// WarnDeadProduction: an alternative can never be predicted.
	WarnDeadProduction
)

func (k WarningKind) String() string {
	switch k {
	case WarnAmbiguity:
		return "ambiguity"
	case WarnRecursionOverflow:
		return "recursion-overflow"
	case WarnNonLLRegular:
		return "non-LL-regular"
	case WarnResourceLimit:
		return "resource-limit"
	case WarnDeadProduction:
		return "dead-production"
	default:
		return "warning"
	}
}

// Warning is one analysis diagnostic.
type Warning struct {
	Decision int
	Kind     WarningKind
	Alts     []int
	Msg      string
}

func (w Warning) String() string {
	return fmt.Sprintf("decision %d: %s: %s", w.Decision, w.Kind, w.Msg)
}

// Class classifies a decision's lookahead machinery (Table 1 columns).
type Class int

const (
	// ClassFixed: acyclic DFA, fixed LL(k).
	ClassFixed Class = iota
	// ClassCyclic: cyclic DFA, arbitrary regular lookahead.
	ClassCyclic
	// ClassBacktrack: some state fails over to speculation.
	ClassBacktrack
)

func (c Class) String() string {
	switch c {
	case ClassFixed:
		return "fixed"
	case ClassCyclic:
		return "cyclic"
	default:
		return "backtrack"
	}
}

// DecisionInfo summarizes one analyzed decision.
type DecisionInfo struct {
	Decision *atn.Decision
	DFA      *dfa.DFA
	Class    Class
	// FixedK is the lookahead depth for ClassFixed decisions.
	FixedK int
	// Elapsed is the wall-clock time spent constructing, minimizing,
	// and compiling this decision's DFA.
	Elapsed time.Duration
	// ClosureCalls counts invocations of the closure operation
	// (Algorithm 9) during this decision's subset construction — the
	// dominant analysis cost.
	ClosureCalls int
}

// Result is the full analysis output for a grammar.
type Result struct {
	Grammar   *grammar.Grammar
	Machine   *atn.Machine
	DFAs      []*dfa.DFA // indexed by decision ID
	Decisions []DecisionInfo
	Warnings  []Warning
	Elapsed   time.Duration

	shapeOnce sync.Once
	shape     *runtime.Shape
}

var classThrottle = [...]runtime.Throttle{
	ClassFixed: runtime.ThrottleFixed, ClassCyclic: runtime.ThrottleCyclic, ClassBacktrack: runtime.ThrottleBacktrack,
}

// Shape returns the grammar's static decision table, built on first use
// and shared by every parser and probe consumer of the grammar.
func (r *Result) Shape() *runtime.Shape {
	r.shapeOnce.Do(func() {
		s := &runtime.Shape{Decisions: make([]runtime.DecisionShape, len(r.DFAs)), Rules: len(r.Grammar.Rules)}
		for _, di := range r.Decisions {
			s.Decisions[di.Decision.ID] = runtime.DecisionShape{
				Class: classThrottle[di.Class], NAlts: di.Decision.NAlts, DFAStates: di.DFA.NumStates(),
			}
		}
		r.shape = s
	})
	return r.shape
}

// NumDecisions returns the number of parsing decisions analyzed.
func (r *Result) NumDecisions() int { return len(r.Decisions) }

// CountClass returns how many decisions have the given class.
func (r *Result) CountClass(c Class) int {
	n := 0
	for _, d := range r.Decisions {
		if d.Class == c {
			n++
		}
	}
	return n
}

// FixedKHistogram returns counts of fixed decisions per lookahead depth k
// (index 0 unused), as in Table 2. Decisions that consult no tokens at
// all (pure predicate dispatch) count as k=1.
func (r *Result) FixedKHistogram() []int {
	maxK := 1
	for _, d := range r.Decisions {
		if d.Class == ClassFixed && d.FixedK > maxK {
			maxK = d.FixedK
		}
	}
	hist := make([]int, maxK+1)
	for _, d := range r.Decisions {
		if d.Class != ClassFixed {
			continue
		}
		k := d.FixedK
		if k < 1 {
			k = 1
		}
		hist[k]++
	}
	return hist
}

// Analyze builds the ATN for g and constructs a lookahead DFA for every
// parsing decision. The grammar must already validate cleanly.
func Analyze(g *grammar.Grammar, opts Options) (*Result, error) {
	tr := obs.Active(opts.Tracer)
	mx := opts.Metrics
	start := time.Now()
	var analysisT0, atnT0 time.Duration
	if tr != nil {
		analysisT0 = tr.Now()
		atnT0 = analysisT0
	}
	m, err := atn.Build(g)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Emit(obs.Event{
			Name: "atn.build", Cat: obs.PhaseAnalysis, Ph: obs.PhSpan,
			TS: atnT0, Dur: tr.Now() - atnT0, Decision: -1,
			OK: true, N: int64(len(m.Decisions)),
		})
	}
	res := &Result{Grammar: g, Machine: m}
	if opts.M == 0 {
		opts.M = g.Options.Governor()
	}
	if opts.MaxDFAStates == 0 {
		opts.MaxDFAStates = DefaultMaxDFAStates
	}
	if opts.MaxK == 0 {
		opts.MaxK = g.Options.K
	}

	shared := computeFirstSets(m)
	res.DFAs = make([]*dfa.DFA, len(m.Decisions))

	workers := opts.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > len(m.Decisions) {
		workers = len(m.Decisions)
	}

	// Each decision's subset construction touches only read-only shared
	// state (the ATN, the grammar, the FIRST sets) plus its own decAnalysis
	// scratch, so the per-decision work fans out across a bounded pool.
	// Outcomes land in a slice indexed by decision ID and are assembled in
	// decision order below, making the parallel result byte-identical to a
	// serial run.
	outcomes := make([]decOutcome, len(m.Decisions))
	if workers <= 1 {
		for _, dec := range m.Decisions {
			outcomes[dec.ID] = analyzeDecision(m, dec, opts, shared, tr, 0)
		}
	} else {
		feed := make(chan *atn.Decision)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				var wT0 time.Duration
				if tr != nil {
					wT0 = tr.Now()
				}
				n := 0
				for dec := range feed {
					outcomes[dec.ID] = analyzeDecision(m, dec, opts, shared, tr, worker)
					n++
				}
				if tr != nil {
					tr.Emit(obs.Event{
						Name: "analysis.worker", Cat: obs.PhaseAnalysis, Ph: obs.PhSpan,
						TS: wT0, Dur: tr.Now() - wT0, Decision: -1,
						Worker: worker, OK: true, N: int64(n),
					})
				}
			}(w)
		}
		for _, dec := range m.Decisions {
			feed <- dec
		}
		close(feed)
		wg.Wait()
	}

	for _, dec := range m.Decisions {
		o := &outcomes[dec.ID]
		res.DFAs[dec.ID] = o.info.DFA
		res.Decisions = append(res.Decisions, o.info)
		res.Warnings = append(res.Warnings, o.warnings...)
		if mx != nil {
			d := o.info.DFA
			mx.Counter(obs.Label("llstar_analysis_decisions_total", "class", o.info.Class.String())).Inc()
			mx.Counter("llstar_analysis_dfa_states_total").Add(int64(d.NumStates()))
			mx.Counter("llstar_analysis_closure_calls_total").Add(int64(o.info.ClosureCalls))
			if d.Fallback != "" {
				mx.Counter("llstar_analysis_fallbacks_total").Inc()
			}
			for _, w := range o.warnings {
				mx.Counter(obs.Label("llstar_analysis_warnings_total", "kind", w.Kind.String())).Inc()
			}
		}
	}
	res.Elapsed = time.Since(start)
	if tr != nil {
		tr.Emit(obs.Event{
			Name: "analysis", Cat: obs.PhaseAnalysis, Ph: obs.PhSpan,
			TS: analysisT0, Dur: tr.Now() - analysisT0, Decision: -1,
			Rule: g.Name, OK: true, N: int64(len(res.Decisions)),
		})
	}
	if mx != nil {
		mx.Gauge("llstar_analysis_elapsed_us").Set(res.Elapsed.Microseconds())
	}
	return res, nil
}

// decOutcome is one decision's completed analysis, produced by a worker
// and assembled into the Result in decision order.
type decOutcome struct {
	info     DecisionInfo
	warnings []Warning
}

// analyzeDecision runs the full per-decision pipeline — subset
// construction (Algorithms 8–11), minimization, edge-table compilation,
// classification, dead-production detection — against read-only shared
// state. It is safe to call concurrently for distinct decisions; worker
// tags the trace events with the emitting worker's index.
func analyzeDecision(m *atn.Machine, dec *atn.Decision, opts Options, shared *firstSets, tr obs.Tracer, worker int) decOutcome {
	decOpts := opts
	// Per-rule lookahead caps (rule options override grammar-level).
	if k := dec.Rule.OptionInt("k", 0); k > 0 {
		decOpts.MaxK = k
	}
	if g := dec.Rule.OptionInt("m", 0); g > 0 {
		decOpts.M = g
	}
	var decT0 time.Duration
	if tr != nil {
		decT0 = tr.Now()
	}
	decStart := time.Now()
	da := newDecAnalysis(m, dec, decOpts, shared)
	d := da.construct()
	d.Minimize()
	d.Compile(m.Grammar.Vocab.MaxType())

	info := DecisionInfo{
		Decision:     dec,
		DFA:          d,
		Elapsed:      time.Since(decStart),
		ClosureCalls: da.closureCalls,
	}
	switch {
	case d.HasBacktrack():
		info.Class = ClassBacktrack
	case d.Cyclic():
		info.Class = ClassCyclic
	default:
		info.Class = ClassFixed
		info.FixedK = d.MaxLookahead()
	}
	warnings := append(da.warnings, deadProductions(dec, d)...)

	if tr != nil {
		tr.Emit(obs.Event{
			Name: "dfa.construct", Cat: obs.PhaseAnalysis, Ph: obs.PhSpan,
			TS: decT0, Dur: tr.Now() - decT0,
			Decision: dec.ID, Rule: dec.Rule.Name, Detail: dec.Desc,
			Throttle: info.Class.String(), OK: d.Fallback == "",
			Worker: worker, N: int64(d.NumStates()),
		})
		if d.Fallback != "" {
			tr.Emit(obs.Event{
				Name: "analysis.fallback", Cat: obs.PhaseAnalysis, Ph: obs.PhInstant, TS: tr.Now(),
				Decision: dec.ID, Rule: dec.Rule.Name, Detail: d.Fallback, Worker: worker,
			})
		}
		for _, w := range warnings {
			tr.Emit(obs.Event{
				Name: "analysis.warning", Cat: obs.PhaseAnalysis, Ph: obs.PhInstant, TS: tr.Now(),
				Decision: w.Decision, Rule: dec.Rule.Name,
				Detail: w.Kind.String() + ": " + w.Msg, Worker: worker,
			})
		}
	}
	return decOutcome{info: info, warnings: warnings}
}

// deadProductions reports alternatives never predicted by the DFA —
// the static analogue of the PEG A → a | ab hazard from Section 1.
func deadProductions(dec *atn.Decision, d *dfa.DFA) []Warning {
	reachable := map[int]bool{}
	for _, s := range d.States {
		if s.AcceptAlt > 0 {
			reachable[s.AcceptAlt] = true
		}
		for _, e := range s.PredEdges {
			reachable[e.Alt] = true
		}
	}
	var ws []Warning
	for alt := 1; alt <= dec.NAlts; alt++ {
		if !reachable[alt] {
			label := fmt.Sprintf("alternative %d", alt)
			if dec.HasExitAlt() && alt == dec.NAlts {
				// An unreachable exit branch means an infinite loop
				// grammar; still worth reporting, with a clearer label.
				label = "loop exit branch"
			}
			ws = append(ws, Warning{
				Decision: dec.ID,
				Kind:     WarnDeadProduction,
				Alts:     []int{alt},
				Msg:      fmt.Sprintf("%s of %s can never be matched", label, dec.Desc),
			})
		}
	}
	return ws
}
