package runtime

import "fmt"

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
}

// ParseStats aggregates runtime profiling for one or more parses.
type ParseStats struct {
	Decisions []DecisionStats // indexed by decision ID

	// MemoEntries is the memo-table size after the parse(s).
	MemoEntries int
	// MemoHits/MemoMisses count cache activity.
	MemoHits   int
	MemoMisses int
	// MemoStores counts Put operations (entries written, including
	// overwrites).
	MemoStores int
}

// NewParseStats sizes the table for n decisions.
func NewParseStats(n int) *ParseStats {
	return &ParseStats{Decisions: make([]DecisionStats, n)}
}

// Reset clears all accumulated counters while preserving the static
// CanBacktrack marks, so a pooled parser starts each parse with a clean
// profile.
func (ps *ParseStats) Reset() {
	if ps == nil {
		return
	}
	for i := range ps.Decisions {
		can := ps.Decisions[i].CanBacktrack
		ps.Decisions[i] = DecisionStats{CanBacktrack: can}
	}
	ps.MemoEntries = 0
	ps.MemoHits = 0
	ps.MemoMisses = 0
	ps.MemoStores = 0
}

// Record logs one prediction event.
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

// Probe returns the consumer that profiles parses into ps: each parse
// starts from a reset profile and records every prediction, and a full
// parse ends by copying its memo-table totals.
func (ps *ParseStats) Probe() Probe { return statsProbe{ps: ps} }

type statsProbe struct {
	NopProbe
	ps *ParseStats
}

func (s statsProbe) BeginParse(bool) { s.ps.Reset() }

func (s statsProbe) Predict(e Prediction) {
	btk := 0
	if e.Backtracked {
		btk = e.K
	}
	s.ps.Record(e.Decision, e.K, e.Backtracked, btk)
}

func (s statsProbe) EndParse(e ParseEnd) {
	if m := e.Memo; m != nil && !e.Fragment {
		s.ps.MemoEntries, s.ps.MemoHits = m.Entries(), m.Hits()
		s.ps.MemoMisses, s.ps.MemoStores = m.Misses(), m.Stores()
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
