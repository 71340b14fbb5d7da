package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"llstar"
)

// ResultVersion versions the BENCH_*.json schema.
const ResultVersion = 1

// ResultSet is the machine-readable benchmark artifact: one run of the
// six workloads at a fixed seed and input size. Counter fields are
// deterministic — the same seed, lines, and code produce identical
// values — so a diff against a checked-in baseline separates real
// behavior changes from timing noise.
type ResultSet struct {
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	Lines   int    `json:"lines"`
	Runs    int    `json:"runs"`
	GoOS    string `json:"goos"`
	GoArch  string `json:"goarch"`

	// Run metadata: which toolchain and host shape produced the
	// numbers. Informational only — Compare never reads it — but it
	// lets a BENCH_*.json trajectory answer "did the toolchain change
	// between these two points?" without archaeology.
	GoVersion  string `json:"go_version,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	Timestamp  string `json:"timestamp_utc,omitempty"`

	Workloads []WorkloadResult `json:"workloads"`

	// Stream is the streaming/incremental section, filled by AddStream
	// when the run includes the streaming engine (-stream). Nil on
	// older baselines — Compare tolerates either way.
	Stream *StreamResult `json:"stream,omitempty"`
}

// WorkloadResult is one grammar's row: the static analysis shape, the
// deterministic parse counters, and the (noisy) best-of-runs timing.
type WorkloadResult struct {
	Name    string `json:"name"`
	Grammar string `json:"grammar"`

	// Analysis shape (deterministic).
	Decisions int `json:"decisions"`
	Fixed     int `json:"fixed"`
	Cyclic    int `json:"cyclic"`
	Backtrack int `json:"backtrack"`

	// Parse counters (deterministic for fixed seed+lines).
	InputLines       int     `json:"input_lines"`
	Events           int     `json:"events"`
	DecisionsCovered int     `json:"decisions_covered"`
	AvgK             float64 `json:"avg_k"`
	MaxK             int     `json:"max_k"`
	BacktrackEvents  int     `json:"backtrack_events"`
	MemoEntries      int     `json:"memo_entries"`
	MemoHits         int     `json:"memo_hits"`
	MemoMisses       int     `json:"memo_misses"`
	MemoStores       int     `json:"memo_stores"`

	// Timing (noisy; best of Runs).
	ParseNanos  int64   `json:"parse_nanos"`
	LinesPerSec float64 `json:"lines_per_sec"`

	// Generated-parser columns, filled by AddCompiled when the run
	// includes the compiled engine (-compiled). GenTokens is
	// deterministic; the timings are noisy like ParseNanos. All zero on
	// interpreter-only runs — Compare tolerates baselines either way.
	GenTokens      int     `json:"gen_tokens,omitempty"`
	GenParseNanos  int64   `json:"gen_parse_nanos,omitempty"`
	GenLinesPerSec float64 `json:"gen_lines_per_sec,omitempty"`

	// Streaming columns, filled by AddStream when the run includes the
	// streaming engine (-stream). StreamEvents (SAX events emitted) and
	// StreamPeakWindow (peak buffered tokens) are deterministic; zero on
	// non-streaming runs — Compare tolerates baselines either way.
	StreamEvents     int `json:"stream_events,omitempty"`
	StreamPeakWindow int `json:"stream_peak_window,omitempty"`
}

// RunResultSet runs every workload at the given seed and input size,
// keeping the best timing of runs while asserting the counters agree
// across runs (they must — the input and parser are deterministic).
func RunResultSet(seed int64, lines, runs int) (*ResultSet, error) {
	if runs < 1 {
		runs = 1
	}
	rs := &ResultSet{
		Version: ResultVersion,
		Seed:    seed, Lines: lines, Runs: runs,
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, w := range Workloads {
		g, err := w.Load()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		wr := WorkloadResult{Name: w.Name, Grammar: w.File}
		for _, d := range g.Decisions() {
			wr.Decisions++
			switch d.Class {
			case llstar.Fixed:
				wr.Fixed++
			case llstar.Cyclic:
				wr.Cyclic++
			default:
				wr.Backtrack++
			}
		}
		input := w.Input(seed, lines)
		wr.InputLines = countLines(input)
		best := time.Duration(math.MaxInt64)
		for r := 0; r < runs; r++ {
			p := g.NewParser(llstar.WithStats())
			t0 := time.Now()
			if _, err := p.Parse(w.Start, input); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			elapsed := time.Since(t0)
			if elapsed < best {
				best = elapsed
			}
			st := p.Stats()
			cur := WorkloadResult{
				Events:           st.TotalEvents(),
				DecisionsCovered: st.DecisionsCovered(),
				AvgK:             st.AvgK(),
				MaxK:             st.MaxK(),
				BacktrackEvents:  st.BacktrackEvents(),
				MemoEntries:      st.MemoEntries,
				MemoHits:         st.MemoHits,
				MemoMisses:       st.MemoMisses,
				MemoStores:       st.MemoStores,
			}
			if r == 0 {
				wr.Events, wr.DecisionsCovered, wr.AvgK, wr.MaxK = cur.Events, cur.DecisionsCovered, cur.AvgK, cur.MaxK
				wr.BacktrackEvents = cur.BacktrackEvents
				wr.MemoEntries, wr.MemoHits, wr.MemoMisses, wr.MemoStores = cur.MemoEntries, cur.MemoHits, cur.MemoMisses, cur.MemoStores
			} else if cur.Events != wr.Events || cur.MemoStores != wr.MemoStores {
				return nil, fmt.Errorf("%s: counters differ across runs (events %d vs %d) — parser is not deterministic",
					w.Name, cur.Events, wr.Events)
			}
		}
		wr.ParseNanos = best.Nanoseconds()
		if best > 0 {
			wr.LinesPerSec = float64(wr.InputLines) / best.Seconds()
		}
		rs.Workloads = append(rs.Workloads, wr)
	}
	return rs, nil
}

// WriteJSON serializes the result set, indented for stable diffs.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadResults parses a result set written by WriteJSON.
func ReadResults(r io.Reader) (*ResultSet, error) {
	var rs ResultSet
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, fmt.Errorf("bench: bad results file: %w", err)
	}
	if rs.Version != ResultVersion {
		return nil, fmt.Errorf("bench: results version %d, want %d (regenerate the baseline)", rs.Version, ResultVersion)
	}
	return &rs, nil
}

// CompareOptions tune Compare.
type CompareOptions struct {
	// Threshold is the tolerated fractional timing regression
	// (0.15 = 15%). Zero means the 15% default.
	Threshold float64
	// Timing enables the lines/sec comparison. Off, only the
	// deterministic counters are compared — the right mode for CI, where
	// the baseline was recorded on different hardware.
	Timing bool
}

// Compare diffs a fresh result set against a baseline, writing one line
// per finding. Deterministic counters must match exactly (any drift is
// a behavior change the baseline doesn't bless); timings may regress up
// to the threshold. It returns false when the new results regress.
func Compare(out io.Writer, baseline, cur *ResultSet, opts CompareOptions) bool {
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = 0.15
	}
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(out, "REGRESSION: "+format+"\n", args...)
	}
	if baseline.Seed != cur.Seed || baseline.Lines != cur.Lines {
		fail("config mismatch: baseline seed=%d lines=%d, current seed=%d lines=%d",
			baseline.Seed, baseline.Lines, cur.Seed, cur.Lines)
		return false
	}
	base := map[string]WorkloadResult{}
	for _, w := range baseline.Workloads {
		base[w.Name] = w
	}
	for _, w := range cur.Workloads {
		b, found := base[w.Name]
		if !found {
			fmt.Fprintf(out, "note: %s not in baseline (new workload)\n", w.Name)
			continue
		}
		delete(base, w.Name)
		failedBefore := !ok
		counters := []struct {
			name     string
			old, new int
		}{
			{"decisions", b.Decisions, w.Decisions},
			{"fixed", b.Fixed, w.Fixed},
			{"cyclic", b.Cyclic, w.Cyclic},
			{"backtrack", b.Backtrack, w.Backtrack},
			{"input_lines", b.InputLines, w.InputLines},
			{"events", b.Events, w.Events},
			{"decisions_covered", b.DecisionsCovered, w.DecisionsCovered},
			{"max_k", b.MaxK, w.MaxK},
			{"backtrack_events", b.BacktrackEvents, w.BacktrackEvents},
			{"memo_entries", b.MemoEntries, w.MemoEntries},
			{"memo_hits", b.MemoHits, w.MemoHits},
			{"memo_misses", b.MemoMisses, w.MemoMisses},
			{"memo_stores", b.MemoStores, w.MemoStores},
		}
		for _, c := range counters {
			if c.old != c.new {
				fail("%s: %s changed %d -> %d (deterministic counter; regenerate the baseline if intended)",
					w.Name, c.name, c.old, c.new)
			}
		}
		if math.Abs(b.AvgK-w.AvgK) > 1e-9 {
			fail("%s: avg_k changed %.6f -> %.6f", w.Name, b.AvgK, w.AvgK)
		}
		// Generated-parser data is compared only when the baseline has
		// it: an interpreter-only baseline predates the compiled engine
		// and stays valid.
		if b.GenTokens != 0 {
			if w.GenTokens == 0 {
				fail("%s: baseline has generated-parser counters but current run does not (rerun with -compiled)", w.Name)
			} else if b.GenTokens != w.GenTokens {
				fail("%s: gen_tokens changed %d -> %d (deterministic counter; regenerate the baseline if intended)",
					w.Name, b.GenTokens, w.GenTokens)
			}
		}
		// Streaming data likewise gates on baseline presence.
		if b.StreamEvents != 0 {
			if w.StreamEvents == 0 {
				fail("%s: baseline has streaming counters but current run does not (rerun with -stream)", w.Name)
			} else {
				if b.StreamEvents != w.StreamEvents {
					fail("%s: stream_events changed %d -> %d (deterministic counter; regenerate the baseline if intended)",
						w.Name, b.StreamEvents, w.StreamEvents)
				}
				if b.StreamPeakWindow != w.StreamPeakWindow {
					fail("%s: stream_peak_window changed %d -> %d (deterministic counter; regenerate the baseline if intended)",
						w.Name, b.StreamPeakWindow, w.StreamPeakWindow)
				}
			}
		}
		countersOK := ok || failedBefore // no new failure since this workload started
		if opts.Timing && b.LinesPerSec > 0 {
			drop := (b.LinesPerSec - w.LinesPerSec) / b.LinesPerSec
			if drop > threshold {
				fail("%s: lines/sec %.0f -> %.0f (-%.1f%%, threshold %.0f%%)",
					w.Name, b.LinesPerSec, w.LinesPerSec, 100*drop, 100*threshold)
			} else if countersOK {
				fmt.Fprintf(out, "ok: %s timing %.0f -> %.0f lines/sec (%+.1f%%)\n",
					w.Name, b.LinesPerSec, w.LinesPerSec, -100*drop)
			}
			if b.GenLinesPerSec > 0 && w.GenLinesPerSec > 0 {
				genDrop := (b.GenLinesPerSec - w.GenLinesPerSec) / b.GenLinesPerSec
				if genDrop > threshold {
					fail("%s: generated lines/sec %.0f -> %.0f (-%.1f%%, threshold %.0f%%)",
						w.Name, b.GenLinesPerSec, w.GenLinesPerSec, 100*genDrop, 100*threshold)
				}
			}
		} else if countersOK {
			fmt.Fprintf(out, "ok: %s counters match baseline\n", w.Name)
		}
	}
	for name := range base {
		fail("%s: missing from current results", name)
	}
	// The incremental edit benchmark compares only when the baseline
	// recorded one: token count and reuse percentage are deterministic.
	if baseline.Stream != nil {
		switch {
		case cur.Stream == nil:
			fail("baseline has a stream section but current run does not (rerun with -stream)")
		case baseline.Stream.EditLines != cur.Stream.EditLines,
			baseline.Stream.EditTokens != cur.Stream.EditTokens:
			fail("stream: edit bench shape changed (%d lines/%d tokens -> %d/%d)",
				baseline.Stream.EditLines, baseline.Stream.EditTokens,
				cur.Stream.EditLines, cur.Stream.EditTokens)
		case math.Abs(baseline.Stream.EditReusedTokensPct-cur.Stream.EditReusedTokensPct) > 1e-9:
			fail("stream: edit_reused_tokens_pct changed %.2f -> %.2f",
				baseline.Stream.EditReusedTokensPct, cur.Stream.EditReusedTokensPct)
		}
	}
	return ok
}
