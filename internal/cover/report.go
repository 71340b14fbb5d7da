package cover

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"llstar/internal/runtime"
)

// This file renders snapshots into the two human-facing artifacts: the
// grammar coverage report (what a corpus never exercised) and the
// hotspot attribution (which decision burns the speculation budget),
// as sorted text tables. html.go renders the same data as a
// self-contained HTML page.

// StrategyTotals sums prediction events by strategy across decisions.
func (s *Snapshot) StrategyTotals() [runtime.NumStrategies]int64 {
	var out [runtime.NumStrategies]int64
	for i := range s.Decisions {
		for j, n := range s.Decisions[i].Strategy {
			out[j] += n
		}
	}
	return out
}

// TotalPredictions sums prediction events across decisions.
func (s *Snapshot) TotalPredictions() int64 {
	var n int64
	for i := range s.Decisions {
		n += s.Decisions[i].Predictions
	}
	return n
}

// TotalWastedSpecTokens sums tokens consumed by failed speculation.
func (s *Snapshot) TotalWastedSpecTokens() int64 {
	var n int64
	for i := range s.Decisions {
		n += s.Decisions[i].WastedSpecTokens
	}
	return n
}

// Summary is the roll-up a coverage report leads with.
type Summary struct {
	Grammar     string `json:"grammar"`
	Parses      int64  `json:"parses"`
	ParseErrors int64  `json:"parse_errors"`
	Tokens      int64  `json:"tokens"`

	RulesCovered    int   `json:"rules_covered"`
	RulesTotal      int   `json:"rules_total"`
	DecisionsHit    int   `json:"decisions_covered"`
	DecisionsTotal  int   `json:"decisions_total"`
	AltsCovered     int   `json:"alts_covered"`
	AltsTotal       int   `json:"alts_total"`
	DFAStatesHit    int   `json:"dfa_states_covered"`
	DFAStatesTotal  int   `json:"dfa_states_total"`
	Predictions     int64 `json:"predictions"`
	BacktrackEvents int64 `json:"backtrack_events"`
	WastedTokens    int64 `json:"wasted_speculation_tokens"`
}

// Summarize computes the roll-up.
func (s *Snapshot) Summarize() Summary {
	sum := Summary{
		Grammar:        s.Meta.Grammar,
		Parses:         s.Parses,
		ParseErrors:    s.ParseErrors,
		Tokens:         s.Tokens,
		RulesTotal:     len(s.Rules),
		DecisionsTotal: len(s.Decisions),
	}
	for i := range s.Rules {
		if s.Rules[i].Invocations > 0 {
			sum.RulesCovered++
		}
	}
	for i := range s.Decisions {
		d := &s.Decisions[i]
		if d.Predictions > 0 {
			sum.DecisionsHit++
		}
		sum.AltsCovered += d.AltsCovered()
		sum.AltsTotal += len(d.Alts)
		sum.DFAStatesHit += d.StatesCovered()
		sum.DFAStatesTotal += len(d.StatesVisited)
		sum.Predictions += d.Predictions
		sum.BacktrackEvents += d.Strategy[runtime.StratBacktrack]
		sum.WastedTokens += d.WastedSpecTokens
	}
	return sum
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 100
	}
	return 100 * float64(a) / float64(b)
}

// WriteReport renders the grammar coverage report: the summary, the
// per-strategy prediction split, then everything the corpus never
// exercised — rules never invoked, decisions never predicted, alts
// never chosen, and DFA states never visited — each sorted for stable
// diffs.
func (s *Snapshot) WriteReport(w io.Writer) error {
	sum := s.Summarize()
	fmt.Fprintf(w, "grammar coverage: %s (%d parses, %d tokens, %d errors)\n",
		sum.Grammar, sum.Parses, sum.Tokens, sum.ParseErrors)
	fmt.Fprintf(w, "  rules      %d/%d (%.1f%%)\n", sum.RulesCovered, sum.RulesTotal,
		pct(int64(sum.RulesCovered), int64(sum.RulesTotal)))
	fmt.Fprintf(w, "  decisions  %d/%d (%.1f%%)\n", sum.DecisionsHit, sum.DecisionsTotal,
		pct(int64(sum.DecisionsHit), int64(sum.DecisionsTotal)))
	fmt.Fprintf(w, "  alts       %d/%d (%.1f%%)\n", sum.AltsCovered, sum.AltsTotal,
		pct(int64(sum.AltsCovered), int64(sum.AltsTotal)))
	fmt.Fprintf(w, "  DFA states %d/%d (%.1f%%)\n", sum.DFAStatesHit, sum.DFAStatesTotal,
		pct(int64(sum.DFAStatesHit), int64(sum.DFAStatesTotal)))

	st := s.StrategyTotals()
	total := s.TotalPredictions()
	fmt.Fprintf(w, "prediction strategies (%d events):\n", total)
	for i := runtime.Strategy(0); i < runtime.NumStrategies; i++ {
		fmt.Fprintf(w, "  %-9s %12d (%.2f%%)\n", i.String(), st[i], pct(st[i], total))
	}

	if miss := s.uncoveredRules(); len(miss) > 0 {
		fmt.Fprintf(w, "rules never invoked (%d):\n", len(miss))
		for _, name := range miss {
			fmt.Fprintf(w, "  %s\n", name)
		}
	}
	var deadDecs []DecisionMeta
	for i := range s.Decisions {
		if s.Decisions[i].Predictions == 0 {
			deadDecs = append(deadDecs, s.Meta.Decisions[i])
		}
	}
	if len(deadDecs) > 0 {
		fmt.Fprintf(w, "decisions never exercised (%d):\n", len(deadDecs))
		for _, m := range deadDecs {
			fmt.Fprintf(w, "  d%-4d %-9s %s\n", m.ID, m.Class, m.Desc)
		}
	}
	first := true
	for i := range s.Decisions {
		d := &s.Decisions[i]
		if d.Predictions == 0 {
			continue // already listed whole-decision gaps above
		}
		var missing []string
		for a, n := range d.Alts {
			if n == 0 {
				missing = append(missing, fmt.Sprint(a+1))
			}
		}
		if len(missing) == 0 {
			continue
		}
		if first {
			fmt.Fprintln(w, "alternatives never chosen:")
			first = false
		}
		m := s.Meta.Decisions[i]
		fmt.Fprintf(w, "  d%-4d %-16s alt %s of %d\n", m.ID, m.Rule, strings.Join(missing, ","), m.NAlts)
	}
	first = true
	for i := range s.Decisions {
		d := &s.Decisions[i]
		if d.Predictions == 0 || len(d.StatesVisited) == 0 {
			continue
		}
		hit := d.StatesCovered()
		if hit == len(d.StatesVisited) {
			continue
		}
		if first {
			fmt.Fprintln(w, "DFA states never visited:")
			first = false
		}
		m := s.Meta.Decisions[i]
		fmt.Fprintf(w, "  d%-4d %-16s %d/%d states\n", m.ID, m.Rule, hit, len(d.StatesVisited))
	}
	return nil
}

func (s *Snapshot) uncoveredRules() []string {
	var out []string
	for i := range s.Rules {
		if s.Rules[i].Invocations == 0 && i < len(s.Meta.Rules) {
			out = append(out, s.Meta.Rules[i])
		}
	}
	sort.Strings(out)
	return out
}

// Hotspot is one row of the hotspot attribution: a decision, its
// counters, and its share of the whole profile's wasted work.
type Hotspot struct {
	Meta DecisionMeta     `json:"meta"`
	Cov  DecisionCoverage `json:"coverage"`
	// WastedShare is this decision's fraction of all tokens consumed by
	// failed speculation (0..1) — the headline attribution ("decision 3
	// in expr caused 81% of backtracked tokens").
	WastedShare float64 `json:"wasted_share"`
	// BacktrackShare is its fraction of all backtracking events.
	BacktrackShare float64 `json:"backtrack_share"`
}

// Hotspots ranks exercised decisions by cost: wasted-speculation
// tokens first, then total speculated tokens, then prediction volume.
// Decisions the corpus never reached are excluded.
func (s *Snapshot) Hotspots() []Hotspot {
	totalWasted := s.TotalWastedSpecTokens()
	var totalBack int64
	for i := range s.Decisions {
		totalBack += s.Decisions[i].Strategy[runtime.StratBacktrack]
	}
	var out []Hotspot
	for i := range s.Decisions {
		d := &s.Decisions[i]
		if d.Predictions == 0 {
			continue
		}
		h := Hotspot{Meta: s.Meta.Decisions[i], Cov: *d}
		if totalWasted > 0 {
			h.WastedShare = float64(d.WastedSpecTokens) / float64(totalWasted)
		}
		if totalBack > 0 {
			h.BacktrackShare = float64(d.Strategy[runtime.StratBacktrack]) / float64(totalBack)
		}
		out = append(out, h)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i].Cov, &out[j].Cov
		if a.WastedSpecTokens != b.WastedSpecTokens {
			return a.WastedSpecTokens > b.WastedSpecTokens
		}
		if a.SpecTokens != b.SpecTokens {
			return a.SpecTokens > b.SpecTokens
		}
		if a.Predictions != b.Predictions {
			return a.Predictions > b.Predictions
		}
		return out[i].Meta.ID < out[j].Meta.ID
	})
	return out
}

// WriteHotspots renders the top hotspot rows as a sorted table.
// top <= 0 prints every exercised decision.
func (s *Snapshot) WriteHotspots(w io.Writer, top int) error {
	hs := s.Hotspots()
	if top > 0 && len(hs) > top {
		hs = hs[:top]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "decision\trule\tclass\tpredicts\tLL(1)\tLL(k)\tcyclic\tbacktrack\tspec tokens\twasted\twasted share\tmax k")
	for _, h := range hs {
		c := &h.Cov
		fmt.Fprintf(tw, "d%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%d\n",
			h.Meta.ID, h.Meta.Rule, h.Meta.Class, c.Predictions,
			c.Strategy[runtime.StratLL1], c.Strategy[runtime.StratLLk], c.Strategy[runtime.StratCyclic], c.Strategy[runtime.StratBacktrack],
			c.SpecTokens, c.WastedSpecTokens, 100*h.WastedShare, c.MaxK)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(hs) > 0 && hs[0].Cov.WastedSpecTokens > 0 {
		h := hs[0]
		fmt.Fprintf(w, "hottest: decision %d in %s caused %.0f%% of wasted speculation tokens (%d of %d)\n",
			h.Meta.ID, h.Meta.Rule, 100*h.WastedShare,
			h.Cov.WastedSpecTokens, s.TotalWastedSpecTokens())
	}
	return nil
}
