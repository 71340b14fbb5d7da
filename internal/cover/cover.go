// Package cover is the decision-level coverage and hotspot profiler:
// cheap runtime counters, accumulated per rule / per decision / per
// alternative while parsing, that answer the Section 6 questions for a
// user's own grammar and corpus — how often does each decision resolve
// with LL(1), LL(k), a cyclic DFA, or backtracking; which rules, alts,
// and DFA states does the corpus never exercise; and which decision
// burns the speculation budget.
//
// The parser counts into its own per-parse counter block
// (runtime.ParseStats), which merges into the shared Profile once per
// parse, so pooled parsers and Grammar.ParseConcurrent accumulate into
// one mergeable aggregate without hot-path locking.
package cover

import (
	"sync"

	"llstar/internal/runtime"
)

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
	Strategy [runtime.NumStrategies]int64 `json:"strategy"`
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

// Profile is a mergeable aggregate of coverage counters for one
// grammar. A Profile is safe for concurrent use: any number of parsers
// (pooled or private) may merge their parses into it while other
// goroutines Snapshot it — the serving path for a live
// /debug/coverage endpoint.
type Profile struct {
	mu sync.Mutex
	s  Snapshot // the counters, with the shape in s.Meta
}

// NewProfile returns an empty profile over the given static shape.
// Callers normally use the facade's Grammar.NewCoverage, which fills
// Meta from the analysis result.
func NewProfile(meta Meta) *Profile {
	m := meta
	s := Snapshot{Meta: &m, Decisions: make([]DecisionCoverage, len(m.Decisions)), Rules: make([]RuleCoverage, len(m.Rules))}
	for i, d := range m.Decisions {
		s.Decisions[i].Alts = make([]int64, d.NAlts)
		s.Decisions[i].StatesVisited = make([]bool, d.DFAStates)
	}
	return &Profile{s: s}
}

// Meta returns the profile's static shape.
func (p *Profile) Meta() *Meta { return p.s.Meta }

// AddParse merges one finished parse's counter block into p; a parser
// registers it with the block's OnEnd, so p's lock is taken once per
// parse. A fragment reparse adds its events but does not count as a
// parse. Counters beyond p's shape are ignored.
func (p *Profile) AddParse(ps *runtime.ParseStats, e runtime.ParseEnd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.s
	if !e.Fragment {
		s.Parses++
		s.Tokens += int64(e.Tokens)
		if e.Err != nil {
			s.ParseErrors++
		}
	}
	for i := range min(len(s.Decisions), len(ps.Decisions)) {
		d := &ps.Decisions[i]
		s.Decisions[i].add(&DecisionCoverage{
			Predictions: int64(d.Events), Strategy: d.Strategy, Errors: d.Failed, Alts: d.Alts,
			MaxK: d.MaxK, StatesVisited: d.StatesVisited, EdgesTaken: d.EdgesTaken,
			SpecEvents: d.SpecEvents, SpecTokens: d.SpecTokens,
			WastedSpecEvents: d.WastedSpecEvents, WastedSpecTokens: d.WastedSpecTokens,
			MaxSpecDepth: d.MaxSpecDepth, Resyncs: d.Resyncs, ResyncTokens: d.ResyncTokens,
		})
	}
	for i := range min(len(s.Rules), len(ps.Rules)) {
		r := RuleCoverage(ps.Rules[i])
		s.Rules[i].add(&r)
	}
}

// Merge adds a snapshot's counters into p. Both must come from the
// same grammar (the same Meta shape); mismatched tails are ignored.
func (p *Profile) Merge(o *Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.s
	s.Parses += o.Parses
	s.ParseErrors += o.ParseErrors
	s.Tokens += o.Tokens
	for i := range min(len(s.Decisions), len(o.Decisions)) {
		s.Decisions[i].add(&o.Decisions[i])
	}
	for i := range min(len(s.Rules), len(o.Rules)) {
		s.Rules[i].add(&o.Rules[i])
	}
}

// Reset clears every accumulated counter, keeping the shape.
func (p *Profile) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.s
	s.Parses, s.ParseErrors, s.Tokens = 0, 0, 0
	for i := range s.Decisions {
		d := &s.Decisions[i]
		clear(d.Alts)
		clear(d.StatesVisited)
		*d = DecisionCoverage{Alts: d.Alts, StatesVisited: d.StatesVisited}
	}
	clear(s.Rules)
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
	s := p.s
	s.Decisions = make([]DecisionCoverage, len(p.s.Decisions))
	s.Rules = append(make([]RuleCoverage, 0, len(p.s.Rules)), p.s.Rules...)
	for i, d := range p.s.Decisions {
		d.Alts = append([]int64(nil), d.Alts...)
		d.StatesVisited = append([]bool(nil), d.StatesVisited...)
		s.Decisions[i] = d
	}
	return &s
}
