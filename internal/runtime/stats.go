package runtime

import "fmt"

// Throttle is a decision's static class, which labels its prediction
// events in traces, flight records and metrics: fixed LL(k), cyclic
// DFA, or backtracking. ThrottleNone labels an event with no decision.
type Throttle uint8

const (
	ThrottleNone Throttle = iota
	ThrottleFixed
	ThrottleCyclic
	ThrottleBacktrack
)

var throttleNames = [...]string{"", "fixed", "cyclic", "backtrack"}

func (t Throttle) String() string { return throttleNames[t] }

// Shape is a grammar's static decision table: each decision's class,
// alternative count and DFA size, and the number of parser rules. It
// lays out the counter block and names throttles for the other probe
// consumers; core.Result.Shape builds one per grammar, on first use.
type Shape struct {
	Decisions []DecisionShape // by decision ID
	Rules     int
}

// DecisionShape is one decision's entry in a Shape.
type DecisionShape struct {
	Class            Throttle
	NAlts, DFAStates int
}

// Strategy classifies how one prediction event resolved at runtime, in
// the paper's throttle-up order: LL(1), LL(k) on an acyclic DFA, a
// cyclic DFA scanning arbitrarily far ahead, then backtracking
// (syntactic predicate or PEG-mode speculation).
type Strategy int

const (
	StratLL1 Strategy = iota
	StratLLk
	StratCyclic
	StratBacktrack
	NumStrategies // sizes per-decision strategy arrays
)

// String returns the report label for a strategy.
func (s Strategy) String() string {
	if uint(s) < uint(StratBacktrack) {
		return [...]string{"LL(1)", "LL(k)", "cyclic"}[s]
	}
	return "backtrack"
}

// DepthBounds are the inclusive upper bounds of every depth histogram's
// buckets, lookahead and speculation depth alike, and the metrics
// registry's default buckets. One more bucket holds deeper values.
var DepthBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128}

// Hist is a depth histogram: counts by DepthBounds bucket, plus the
// sum, count and maximum of what it observed.
type Hist struct {
	Buckets     [len(DepthBounds) + 1]int64
	Sum, N, Max int64
}

// depthBucket returns v's bucket index.
func depthBucket(v int64) int {
	i := 0
	for i < len(DepthBounds) && v > DepthBounds[i] {
		i++
	}
	return i
}

// Observe records v.
func (h *Hist) Observe(v int64) {
	h.Buckets[depthBucket(v)]++
	h.Sum += v
	h.N++
	h.Max = max(h.Max, v)
}

// DecisionStats profiles one parsing decision at runtime; the benchmark
// harness aggregates these into Tables 3 and 4.
type DecisionStats struct {
	// Events counts prediction events at this decision.
	Events int
	// SumK accumulates the lookahead depth (tokens examined) per event.
	SumK int64
	// MaxK is the deepest lookahead of any event.
	MaxK int
	// BacktrackEvents counts events that engaged speculation.
	BacktrackEvents int
	// SumBacktrackK accumulates speculation depth (tokens speculated)
	// for backtracking events.
	SumBacktrackK int64
	// CanBacktrack marks decisions whose DFA contains speculation edges.
	CanBacktrack bool

	// Failed counts predictions that found no viable alternative, Alts
	// how often each alternative was chosen (index alt-1), Strategy how
	// each event resolved, and Depth its lookahead depth by DepthBounds
	// bucket.
	Failed   int64
	Alts     []int64
	Strategy [NumStrategies]int64
	Depth    [len(DepthBounds) + 1]int64
	// StatesVisited marks the DFA states predictions passed through (by
	// state ID) and EdgesTaken counts the transitions taken.
	StatesVisited []bool
	EdgesTaken    int64
	// Speculative sub-parses launched here, the tokens they consumed
	// before rewinding, the failed ("wasted") subset of both, and the
	// deepest nesting any of them ran at.
	SpecEvents, SpecTokens             int64
	WastedSpecEvents, WastedSpecTokens int64
	MaxSpecDepth                       int
	// Panic-mode recoveries here and the tokens they deleted.
	Resyncs, ResyncTokens int64
}

// RuleStats profiles one parser rule at runtime: its invocations,
// speculative ones included, and its packrat-cache lookups.
type RuleStats struct {
	Invocations, MemoHits, MemoMisses int64
}

// ParseStats is a parser's per-parse counter block and its one counting
// consumer of the runtime probe. Each parse starts it over and counts
// into it by decision, by rule and for the whole parse. Parser.Stats
// returns it as the Table 3/4 profile; the coverage profile and the
// metrics registry read it through the functions registered with OnEnd.
// Events naming a decision, rule, state or alternative outside its
// shape count for the parse only.
type ParseStats struct {
	NopProbe                  // the events it does not count
	Decisions []DecisionStats // indexed by decision ID
	Rules     []RuleStats     // indexed by parser rule

	// MemoEntries is the memo-table size after the parse(s).
	MemoEntries int
	// MemoHits/MemoMisses count cache activity.
	MemoHits   int
	MemoMisses int
	// MemoStores counts Put operations (entries written, including
	// overwrites).
	MemoStores int

	// Speculations by outcome (the SynPred pair counts the syntactic
	// predicates among them), semantic predicate verdicts, syntax
	// errors, resyncs, and the tokens each speculation consumed.
	SpecMatches, SpecFailures                int64
	SynPredMatches, SynPredFailures          int64
	SemPredTrue, SemPredFalse, SemPredErrors int64
	SyntaxErrors, Resyncs                    int64
	SpecDepth                                Hist

	shape   *Shape
	alts    []int64 // backs every decision's Alts
	visited []bool  // backs every decision's StatesVisited
	onEnd   []func(*ParseStats, ParseEnd)
}

// NewParseStats returns an empty block laid out by s, with the
// decisions that can backtrack marked.
func NewParseStats(s *Shape) *ParseStats {
	ps := &ParseStats{Decisions: make([]DecisionStats, len(s.Decisions)), Rules: make([]RuleStats, s.Rules), shape: s}
	var nalts, nstates int
	for _, d := range s.Decisions {
		nalts, nstates = nalts+d.NAlts, nstates+d.DFAStates
	}
	ps.alts, ps.visited = make([]int64, nalts), make([]bool, nstates)
	alts, visited := ps.alts, ps.visited
	for i, d := range s.Decisions {
		ds := &ps.Decisions[i]
		ds.CanBacktrack = d.Class == ThrottleBacktrack
		ds.Alts, alts = alts[:d.NAlts:d.NAlts], alts[d.NAlts:]
		ds.StatesVisited, visited = visited[:d.DFAStates:d.DFAStates], visited[d.DFAStates:]
	}
	return ps
}

// OnEnd registers fn to read the block when each parse ends, after the
// block has taken the parse's memo totals.
func (ps *ParseStats) OnEnd(fn func(*ParseStats, ParseEnd)) { ps.onEnd = append(ps.onEnd, fn) }

// Reset clears all accumulated counters while preserving the static
// CanBacktrack marks, so a pooled parser starts each parse with a clean
// profile.
func (ps *ParseStats) Reset() {
	if ps == nil {
		return
	}
	for i := range ps.Decisions {
		d := &ps.Decisions[i]
		*d = DecisionStats{CanBacktrack: d.CanBacktrack, Alts: d.Alts, StatesVisited: d.StatesVisited}
	}
	clear(ps.alts)
	clear(ps.visited)
	clear(ps.Rules)
	ps.MemoEntries, ps.MemoHits, ps.MemoMisses, ps.MemoStores = 0, 0, 0, 0
	ps.SpecMatches, ps.SpecFailures, ps.SynPredMatches, ps.SynPredFailures = 0, 0, 0, 0
	ps.SemPredTrue, ps.SemPredFalse, ps.SemPredErrors = 0, 0, 0
	ps.SyntaxErrors, ps.Resyncs, ps.SpecDepth = 0, 0, Hist{}
}

// Record logs one prediction event into the Table 3/4 counters.
func (ps *ParseStats) Record(decision, k int, backtracked bool, backtrackK int) {
	if ps == nil || decision < 0 || decision >= len(ps.Decisions) {
		return
	}
	d := &ps.Decisions[decision]
	d.Events++
	d.SumK += int64(k)
	if k > d.MaxK {
		d.MaxK = k
	}
	if backtracked {
		d.BacktrackEvents++
		d.SumBacktrackK += int64(backtrackK)
	}
}

// Probe returns the block as the consumer that fills it.
func (ps *ParseStats) Probe() Probe { return ps }

// BeginParse starts the block over, fragment reparses included.
func (ps *ParseStats) BeginParse(bool) { ps.Reset() }

func (ps *ParseStats) EnterRule(rule int, _ string, _ int) {
	if uint(rule) < uint(len(ps.Rules)) {
		ps.Rules[rule].Invocations++
	}
}

func (ps *ParseStats) Memo(rule int, _ string, _, _ int, hit, _ bool) {
	if uint(rule) >= uint(len(ps.Rules)) {
		return
	}
	if hit {
		ps.Rules[rule].MemoHits++
	} else {
		ps.Rules[rule].MemoMisses++
	}
}

func (ps *ParseStats) DFAState(decision, state int, edge bool) {
	if uint(decision) >= uint(len(ps.Decisions)) {
		return
	}
	d := &ps.Decisions[decision]
	if edge {
		d.EdgesTaken++
	}
	if uint(state) < uint(len(d.StatesVisited)) {
		d.StatesVisited[state] = true
	}
}

// Predict counts a prediction. Its strategy follows the throttle
// order: a backtracked event is backtrack whatever its depth, otherwise
// a cyclic decision's is cyclic, otherwise k ≤ 1 is LL(1) and deeper
// is LL(k).
func (ps *ParseStats) Predict(e Prediction) {
	if uint(e.Decision) >= uint(len(ps.Decisions)) {
		return
	}
	ps.Record(e.Decision, e.K, e.Backtracked, e.K)
	d := &ps.Decisions[e.Decision]
	d.Depth[depthBucket(int64(e.K))]++
	switch {
	case e.Backtracked:
		d.Strategy[StratBacktrack]++
	case ps.shape.Decisions[e.Decision].Class == ThrottleCyclic:
		d.Strategy[StratCyclic]++
	case e.K <= 1:
		d.Strategy[StratLL1]++
	default:
		d.Strategy[StratLLk]++
	}
	if e.Failed {
		d.Failed++
	} else if uint(e.Alt-1) < uint(len(d.Alts)) {
		d.Alts[e.Alt-1]++
	}
}

func (ps *ParseStats) Speculate(e Speculation) {
	tokens := int64(e.Tokens)
	ps.SpecDepth.Observe(tokens)
	switch {
	case e.OK && e.SynPred >= 0:
		ps.SpecMatches, ps.SynPredMatches = ps.SpecMatches+1, ps.SynPredMatches+1
	case e.OK:
		ps.SpecMatches++
	case e.SynPred >= 0:
		ps.SpecFailures, ps.SynPredFailures = ps.SpecFailures+1, ps.SynPredFailures+1
	default:
		ps.SpecFailures++
	}
	if uint(e.Decision) >= uint(len(ps.Decisions)) {
		return
	}
	d := &ps.Decisions[e.Decision]
	d.SpecEvents++
	d.SpecTokens += tokens
	if !e.OK {
		d.WastedSpecEvents++
		d.WastedSpecTokens += tokens
	}
	d.MaxSpecDepth = max(d.MaxSpecDepth, e.Depth)
}

func (ps *ParseStats) SemPred(_, _ string, _ int, ok bool, err error) {
	switch {
	case err != nil:
		ps.SemPredErrors++
	case !ok:
		ps.SemPredFalse++
	default:
		ps.SemPredTrue++
	}
}

func (ps *ParseStats) SyntaxError(*SyntaxError) { ps.SyntaxErrors++ }

func (ps *ParseStats) Resync(decision int, _ string, deleted int, _ bool) {
	ps.Resyncs++
	if uint(decision) < uint(len(ps.Decisions)) {
		ps.Decisions[decision].Resyncs++
		ps.Decisions[decision].ResyncTokens += int64(deleted)
	}
}

// EndParse copies a full parse's memo-table totals, then hands the
// block to the functions registered with OnEnd.
func (ps *ParseStats) EndParse(e ParseEnd) {
	if m := e.Memo; m != nil && !e.Fragment {
		ps.MemoEntries, ps.MemoHits = m.Entries(), m.Hits()
		ps.MemoMisses, ps.MemoStores = m.Misses(), m.Stores()
	}
	for _, fn := range ps.onEnd {
		fn(ps, e)
	}
}

// TotalEvents sums decision events.
func (ps *ParseStats) TotalEvents() int {
	n := 0
	for i := range ps.Decisions {
		n += ps.Decisions[i].Events
	}
	return n
}

// DecisionsCovered counts decisions with at least one event (the paper's
// "decision points covered while parsing", Table 3 column n).
func (ps *ParseStats) DecisionsCovered() int {
	n := 0
	for i := range ps.Decisions {
		if ps.Decisions[i].Events > 0 {
			n++
		}
	}
	return n
}

// AvgK is the mean lookahead depth across all decision events (Table 3).
func (ps *ParseStats) AvgK() float64 {
	var sum int64
	var events int
	for i := range ps.Decisions {
		sum += ps.Decisions[i].SumK
		events += ps.Decisions[i].Events
	}
	if events == 0 {
		return 0
	}
	return float64(sum) / float64(events)
}

// MaxK is the deepest lookahead of any decision event (Table 3).
func (ps *ParseStats) MaxK() int {
	m := 0
	for i := range ps.Decisions {
		if ps.Decisions[i].MaxK > m {
			m = ps.Decisions[i].MaxK
		}
	}
	return m
}

// BacktrackEvents counts decision events that engaged speculation.
func (ps *ParseStats) BacktrackEvents() int {
	n := 0
	for i := range ps.Decisions {
		n += ps.Decisions[i].BacktrackEvents
	}
	return n
}

// BacktrackRatio is the fraction of decision events that backtracked
// (Table 4 "Backtrack" column).
func (ps *ParseStats) BacktrackRatio() float64 {
	ev := ps.TotalEvents()
	if ev == 0 {
		return 0
	}
	return float64(ps.BacktrackEvents()) / float64(ev)
}

// AvgBacktrackK is the mean speculation depth over backtracking events
// only (Table 3 "back. k").
func (ps *ParseStats) AvgBacktrackK() float64 {
	var sum int64
	var events int
	for i := range ps.Decisions {
		sum += ps.Decisions[i].SumBacktrackK
		events += ps.Decisions[i].BacktrackEvents
	}
	if events == 0 {
		return 0
	}
	return float64(sum) / float64(events)
}

// CanBacktrackCount counts decisions marked as potentially backtracking
// that were exercised ("Can back." in Table 4 counts all such decisions;
// see DidBacktrackCount for "Did back.").
func (ps *ParseStats) CanBacktrackCount() int {
	n := 0
	for i := range ps.Decisions {
		if ps.Decisions[i].CanBacktrack {
			n++
		}
	}
	return n
}

// DidBacktrackCount counts potentially-backtracking decisions that
// actually backtracked at least once (Table 4 "Did back.").
func (ps *ParseStats) DidBacktrackCount() int {
	n := 0
	for i := range ps.Decisions {
		if ps.Decisions[i].BacktrackEvents > 0 {
			n++
		}
	}
	return n
}

// BacktrackTriggerRate is the likelihood that an event at a
// potentially-backtracking decision actually backtracks (Table 4
// "Back. rate").
func (ps *ParseStats) BacktrackTriggerRate() float64 {
	var events, backs int
	for i := range ps.Decisions {
		if ps.Decisions[i].CanBacktrack {
			events += ps.Decisions[i].Events
			backs += ps.Decisions[i].BacktrackEvents
		}
	}
	if events == 0 {
		return 0
	}
	return float64(backs) / float64(events)
}

// MemoHitRatio is the fraction of memo lookups that hit (0 with no
// lookups).
func (ps *ParseStats) MemoHitRatio() float64 {
	lookups := ps.MemoHits + ps.MemoMisses
	if lookups == 0 {
		return 0
	}
	return float64(ps.MemoHits) / float64(lookups)
}

// String summarizes the profile, including memo-cache effectiveness
// (hits, misses, stores, and hit ratio — not just the entry count).
func (ps *ParseStats) String() string {
	return fmt.Sprintf("events=%d covered=%d avgK=%.2f maxK=%d backtrack=%.2f%% backK=%.2f memo=%d hits=%d misses=%d stores=%d hit-ratio=%.1f%%",
		ps.TotalEvents(), ps.DecisionsCovered(), ps.AvgK(), ps.MaxK(),
		100*ps.BacktrackRatio(), ps.AvgBacktrackK(), ps.MemoEntries,
		ps.MemoHits, ps.MemoMisses, ps.MemoStores, 100*ps.MemoHitRatio())
}
