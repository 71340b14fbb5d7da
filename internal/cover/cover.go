// Package cover is the decision-level coverage and hotspot profiler:
// cheap runtime counters, accumulated per rule / per decision / per
// alternative while parsing, that answer the Section 6 questions for a
// user's own grammar and corpus — how often does each decision resolve
// with LL(1), LL(k), a cyclic DFA, or backtracking; which rules, alts,
// and DFA states does the corpus never exercise; and which decision
// burns the speculation budget.
//
// A Recorder is a consumer of the parser's runtime.Probe: the parser
// feeds a private, unsynchronized Recorder, which merges into the shared
// Profile once per parse, so pooled parsers and Grammar.ParseConcurrent
// accumulate into one mergeable aggregate without hot-path locking.
package cover

import (
	"sync"

	"llstar/internal/runtime"
)

// Strategy classifies how one prediction event resolved at runtime.
type Strategy int

// Prediction strategies, in increasing order of cost (the paper's
// graceful throttle-up: LL(1) → LL(k) → cyclic DFA → backtrack).
const (
	// StratLL1: the decision resolved on a single token of lookahead.
	StratLL1 Strategy = iota
	// StratLLk: an acyclic DFA resolved on a fixed k > 1 tokens.
	StratLLk
	// StratCyclic: a cyclic DFA scanned arbitrarily far ahead.
	StratCyclic
	// StratBacktrack: lookahead alone could not decide; the parser
	// speculated (syntactic predicate or PEG-mode backtracking).
	StratBacktrack
	// NumStrategies sizes per-decision strategy arrays.
	NumStrategies
)

// String returns the report label for a strategy.
func (s Strategy) String() string {
	switch s {
	case StratLL1:
		return "LL(1)"
	case StratLLk:
		return "LL(k)"
	case StratCyclic:
		return "cyclic"
	default:
		return "backtrack"
	}
}

// DecisionMeta is the static identity of one parsing decision,
// captured at profile creation so reports can attribute counters to
// stable decision IDs, rules, and DFA shapes.
type DecisionMeta struct {
	ID        int    `json:"id"`
	Rule      string `json:"rule"`
	Desc      string `json:"desc"`
	Class     string `json:"class"` // "fixed", "cyclic", "backtrack"
	NAlts     int    `json:"nalts"`
	DFAStates int    `json:"dfa_states"`
}

// Meta is the static shape of a grammar's profile: decision and rule
// identities, fixed at analysis time. Decision IDs and DFA state IDs
// are stable across loads of the same grammar source (analysis is
// deterministic), so profiles from different processes are comparable.
type Meta struct {
	Grammar   string         `json:"grammar"`
	Decisions []DecisionMeta `json:"decisions"`
	Rules     []string       `json:"rules"` // parser rules, by rule index
}

// DecisionCoverage accumulates runtime counters for one decision.
type DecisionCoverage struct {
	// Predictions counts prediction events at this decision, including
	// nested events inside speculation. The per-strategy split sums to
	// Predictions.
	Predictions int64 `json:"predictions"`
	// Strategy splits Predictions by how each event resolved.
	Strategy [NumStrategies]int64 `json:"strategy"`
	// Errors counts prediction events that failed (no viable alternative).
	Errors int64 `json:"errors"`
	// Alts counts how often each alternative was chosen (index alt-1).
	Alts []int64 `json:"alts"`
	// MaxK is the deepest lookahead of any event here.
	MaxK int `json:"max_k"`
	// StatesVisited marks the DFA states this corpus ever drove the
	// simulation through (index = DFA state ID).
	StatesVisited []bool `json:"states_visited"`
	// EdgesTaken counts DFA transitions taken while simulating here.
	EdgesTaken int64 `json:"edges_taken"`
	// SpecEvents / SpecTokens count speculative sub-parses launched at
	// this decision and the tokens they consumed before rewinding.
	SpecEvents int64 `json:"spec_events"`
	SpecTokens int64 `json:"spec_tokens"`
	// WastedSpecEvents / WastedSpecTokens are the failed subset of the
	// above: speculation whose work was thrown away entirely.
	WastedSpecEvents int64 `json:"wasted_spec_events"`
	WastedSpecTokens int64 `json:"wasted_spec_tokens"`
	// MaxSpecDepth is the deepest speculation nesting reached here.
	MaxSpecDepth int `json:"max_spec_depth"`
	// Resyncs / ResyncTokens count panic-mode recoveries at this
	// decision and the tokens they deleted.
	Resyncs      int64 `json:"resyncs"`
	ResyncTokens int64 `json:"resync_tokens"`
}

// add accumulates o into d (element-wise; visited states are OR-ed).
func (d *DecisionCoverage) add(o *DecisionCoverage) {
	d.Predictions += o.Predictions
	for i := range d.Strategy {
		d.Strategy[i] += o.Strategy[i]
	}
	d.Errors += o.Errors
	for i := range d.Alts {
		if i < len(o.Alts) {
			d.Alts[i] += o.Alts[i]
		}
	}
	if o.MaxK > d.MaxK {
		d.MaxK = o.MaxK
	}
	for i := range d.StatesVisited {
		if i < len(o.StatesVisited) && o.StatesVisited[i] {
			d.StatesVisited[i] = true
		}
	}
	d.EdgesTaken += o.EdgesTaken
	d.SpecEvents += o.SpecEvents
	d.SpecTokens += o.SpecTokens
	d.WastedSpecEvents += o.WastedSpecEvents
	d.WastedSpecTokens += o.WastedSpecTokens
	if o.MaxSpecDepth > d.MaxSpecDepth {
		d.MaxSpecDepth = o.MaxSpecDepth
	}
	d.Resyncs += o.Resyncs
	d.ResyncTokens += o.ResyncTokens
}

// StatesCovered counts distinct DFA states visited.
func (d *DecisionCoverage) StatesCovered() int {
	n := 0
	for _, v := range d.StatesVisited {
		if v {
			n++
		}
	}
	return n
}

// AltsCovered counts alternatives chosen at least once.
func (d *DecisionCoverage) AltsCovered() int {
	n := 0
	for _, c := range d.Alts {
		if c > 0 {
			n++
		}
	}
	return n
}

// RuleCoverage accumulates runtime counters for one parser rule.
type RuleCoverage struct {
	// Invocations counts rule invocations, speculative ones included.
	Invocations int64 `json:"invocations"`
	// MemoHits / MemoMisses count packrat-cache activity for
	// speculative invocations of this rule.
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
}

func (r *RuleCoverage) add(o *RuleCoverage) {
	r.Invocations += o.Invocations
	r.MemoHits += o.MemoHits
	r.MemoMisses += o.MemoMisses
}

// counters is the mutable half shared by Recorder (unsynchronized,
// per-parser) and Profile (mutex-guarded aggregate).
type counters struct {
	Parses      int64
	ParseErrors int64
	Tokens      int64
	Decisions   []DecisionCoverage
	Rules       []RuleCoverage
}

func newCounters(meta *Meta) counters {
	c := counters{
		Decisions: make([]DecisionCoverage, len(meta.Decisions)),
		Rules:     make([]RuleCoverage, len(meta.Rules)),
	}
	for i := range c.Decisions {
		c.Decisions[i].Alts = make([]int64, meta.Decisions[i].NAlts)
		c.Decisions[i].StatesVisited = make([]bool, meta.Decisions[i].DFAStates)
	}
	return c
}

func (c *counters) add(o *counters) {
	c.Parses += o.Parses
	c.ParseErrors += o.ParseErrors
	c.Tokens += o.Tokens
	for i := range c.Decisions {
		if i < len(o.Decisions) {
			c.Decisions[i].add(&o.Decisions[i])
		}
	}
	for i := range c.Rules {
		if i < len(o.Rules) {
			c.Rules[i].add(&o.Rules[i])
		}
	}
}

func (c *counters) reset() {
	c.Parses, c.ParseErrors, c.Tokens = 0, 0, 0
	for i := range c.Decisions {
		d := &c.Decisions[i]
		alts, states := d.Alts, d.StatesVisited
		for j := range alts {
			alts[j] = 0
		}
		for j := range states {
			states[j] = false
		}
		*d = DecisionCoverage{Alts: alts, StatesVisited: states}
	}
	for i := range c.Rules {
		c.Rules[i] = RuleCoverage{}
	}
}

// Profile is a mergeable aggregate of coverage counters for one
// grammar. A Profile is safe for concurrent use: any number of parsers
// (pooled or private) may flush recorders into it while other
// goroutines Snapshot it — the serving path for a live
// /debug/coverage endpoint.
type Profile struct {
	meta *Meta

	mu sync.Mutex
	c  counters
}

// NewProfile returns an empty profile over the given static shape.
// Callers normally use the facade's Grammar.NewCoverage, which fills
// Meta from the analysis result.
func NewProfile(meta Meta) *Profile {
	m := meta
	return &Profile{meta: &m, c: newCounters(&m)}
}

// Meta returns the profile's static shape.
func (p *Profile) Meta() *Meta { return p.meta }

// NewRecorder returns an unsynchronized recorder shaped like the
// profile, for one parser's exclusive use. Flush merges and clears it.
func (p *Profile) NewRecorder() *Recorder {
	r := &Recorder{p: p, c: newCounters(p.meta)}
	r.cyclic = make([]bool, len(p.meta.Decisions))
	for i, d := range p.meta.Decisions {
		r.cyclic[i] = d.Class == "cyclic"
	}
	return r
}

// Merge adds a snapshot's counters into p. Both must come from the
// same grammar (the same Meta shape); mismatched tails are ignored.
func (p *Profile) Merge(s *Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := counters{
		Parses:      s.Parses,
		ParseErrors: s.ParseErrors,
		Tokens:      s.Tokens,
		Decisions:   s.Decisions,
		Rules:       s.Rules,
	}
	p.c.add(&c)
}

// Reset clears every accumulated counter, keeping the shape.
func (p *Profile) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.c.reset()
}

// Snapshot is an immutable copy of a profile's counters, safe to read,
// report, and serialize while parsing continues.
type Snapshot struct {
	Meta        *Meta              `json:"meta"`
	Parses      int64              `json:"parses"`
	ParseErrors int64              `json:"parse_errors"`
	Tokens      int64              `json:"tokens"`
	Decisions   []DecisionCoverage `json:"decisions"`
	Rules       []RuleCoverage     `json:"rules"`
}

// Snapshot deep-copies the current counters.
func (p *Profile) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Meta:        p.meta,
		Parses:      p.c.Parses,
		ParseErrors: p.c.ParseErrors,
		Tokens:      p.c.Tokens,
		Decisions:   make([]DecisionCoverage, len(p.c.Decisions)),
		Rules:       make([]RuleCoverage, len(p.c.Rules)),
	}
	copy(s.Rules, p.c.Rules)
	for i := range p.c.Decisions {
		d := p.c.Decisions[i]
		d.Alts = append([]int64(nil), d.Alts...)
		d.StatesVisited = append([]bool(nil), d.StatesVisited...)
		s.Decisions[i] = d
	}
	return s
}

// Recorder is the hot-path collector bound to one parser, installed as
// one of its probe consumers. It is NOT safe for concurrent use —
// exactly like the parser that owns it. All methods are cheap field
// updates.
type Recorder struct {
	runtime.NopProbe
	p      *Profile
	c      counters
	cyclic []bool // per decision: static class is cyclic
}

// Predict implements runtime.Probe.
func (r *Recorder) Predict(e runtime.Prediction) {
	r.Prediction(e.Decision, e.Alt, e.K, e.Backtracked, e.Failed)
}

// Prediction records one prediction event: the lookahead depth k,
// whether speculation engaged, the chosen alternative (0 on failure),
// and the outcome. Strategy attribution follows the throttle order:
// backtracked events are backtrack regardless of k; otherwise cyclic
// decisions scan with the cyclic DFA; otherwise k ≤ 1 is LL(1) and
// deeper is LL(k).
func (r *Recorder) Prediction(dec, alt, k int, backtracked, failed bool) {
	if dec < 0 || dec >= len(r.c.Decisions) {
		return
	}
	d := &r.c.Decisions[dec]
	d.Predictions++
	switch {
	case backtracked:
		d.Strategy[StratBacktrack]++
	case r.cyclic[dec]:
		d.Strategy[StratCyclic]++
	case k <= 1:
		d.Strategy[StratLL1]++
	default:
		d.Strategy[StratLLk]++
	}
	if k > d.MaxK {
		d.MaxK = k
	}
	if failed {
		d.Errors++
		return
	}
	if alt >= 1 && alt <= len(d.Alts) {
		d.Alts[alt-1]++
	}
}

// DFAState marks a DFA state as visited during simulation, counting the
// transition that reached it.
func (r *Recorder) DFAState(dec, id int, edge bool) {
	if dec < 0 || dec >= len(r.c.Decisions) {
		return
	}
	d := &r.c.Decisions[dec]
	if edge {
		d.EdgesTaken++
	}
	if id >= 0 && id < len(d.StatesVisited) {
		d.StatesVisited[id] = true
	}
}

// Speculate records one speculative sub-parse launched at a decision:
// tokens consumed before the rewind, whether it matched, and the
// nesting depth it ran at.
func (r *Recorder) Speculate(e runtime.Speculation) {
	if e.Decision < 0 || e.Decision >= len(r.c.Decisions) {
		return
	}
	d := &r.c.Decisions[e.Decision]
	d.SpecEvents++
	d.SpecTokens += int64(e.Tokens)
	if !e.OK {
		d.WastedSpecEvents++
		d.WastedSpecTokens += int64(e.Tokens)
	}
	d.MaxSpecDepth = max(d.MaxSpecDepth, e.Depth)
}

// Resync records one panic-mode recovery at a decision.
func (r *Recorder) Resync(dec int, _ string, deleted int, _ bool) {
	if dec < 0 || dec >= len(r.c.Decisions) {
		return
	}
	d := &r.c.Decisions[dec]
	d.Resyncs++
	d.ResyncTokens += int64(deleted)
}

// EnterRule records one rule invocation.
func (r *Recorder) EnterRule(idx int, _ string, _ int) {
	if idx >= 0 && idx < len(r.c.Rules) {
		r.c.Rules[idx].Invocations++
	}
}

// Memo records one packrat-cache lookup for a rule.
func (r *Recorder) Memo(idx int, _ string, _, _ int, hit, _ bool) {
	if idx < 0 || idx >= len(r.c.Rules) {
		return
	}
	if hit {
		r.c.Rules[idx].MemoHits++
	} else {
		r.c.Rules[idx].MemoMisses++
	}
}

// EndParse counts a full parse's tokens and outcome, then flushes.
func (r *Recorder) EndParse(e runtime.ParseEnd) {
	if !e.Fragment {
		r.c.Parses++
		r.c.Tokens += int64(e.Tokens)
		if e.Err != nil {
			r.c.ParseErrors++
		}
	}
	r.Flush()
}

// Flush merges the recorder into its profile and clears it, so
// profile-lock contention is one acquisition per parse, not per event.
func (r *Recorder) Flush() {
	r.p.mu.Lock()
	r.p.c.add(&r.c)
	r.p.mu.Unlock()
	r.c.reset()
}
