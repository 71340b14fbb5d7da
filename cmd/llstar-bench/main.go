// Command llstar-bench regenerates the evaluation tables of the paper
// (Section 6) over the six benchmark grammars and their synthetic
// workloads:
//
//	llstar-bench                  # all tables
//	llstar-bench -table 3         # just Table 3
//	llstar-bench -lines 5000      # bigger inputs for Tables 3/4
//	llstar-bench -seed 7          # different synthetic input
//	llstar-bench -profile         # where analysis time goes, per grammar
//	llstar-bench -workers 8       # parallel analysis speedup table
//	llstar-bench -concurrent 16   # concurrent-parsing throughput table
//	llstar-bench -compiled        # interpreter vs generated-parser throughput table
//	llstar-bench -stream          # streaming sessions: throughput, bounded memory, edit latency
//	llstar-bench -compiled -json BENCH.json   # persist the generated-parser counters too
//	llstar-bench -json BENCH.json # machine-readable result set (the bench trajectory)
//	llstar-bench -compare BENCH_5.json   # rerun at the baseline's config and diff;
//	                                     # exit 1 on counter drift or >15% timing loss
//	llstar-bench -hotspots        # per-grammar coverage + hotspot attribution
//	llstar-bench -cover-html profiles/   # one HTML hotspot report per grammar
//
// Serving, grammar-load and artifact-load timings come from the repo
// benchmark instead: bash cmd/llstar-benchmark/run.sh --workload ...
package main

import (
	"flag"
	"fmt"
	"os"

	"llstar/internal/bench"
	"llstar/internal/genrun"
)

// compiledRunner backs bench.AddCompiled with internal/genrun: generate
// the workload's parser, compile it with the Go toolchain, and time
// tokenize+parse in the driver's bench mode (best of runs).
func compiledRunner(w bench.Workload, input string, runs int) (int64, int, error) {
	g, err := w.Load()
	if err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp("", "llstar-gen-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	r, err := genrun.Build(g, dir)
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	if runs < 2 {
		runs = 2
	}
	resp, err := r.Do(genrun.Request{Rule: w.Start, Input: input, Bench: runs})
	if err != nil {
		return 0, 0, err
	}
	if !resp.OK {
		return 0, 0, fmt.Errorf("generated parser rejected the bench input: %s", resp.Msg)
	}
	return resp.NS, resp.Tokens, nil
}

func main() {
	table := flag.Int("table", 0, "table to print (1-4); 0 prints all")
	lines := flag.Int("lines", 2000, "approximate input size in lines for tables 3 and 4")
	seed := flag.Int64("seed", 1, "workload generator seed")
	memo := flag.Bool("memo", false, "also print memoization cache statistics")
	profile := flag.Bool("profile", false, "print the per-grammar analysis profile (slowest decisions) instead of tables")
	workers := flag.Int("workers", 0, "print the parallel-analysis speedup table for this many workers (0 = skip; -1 = GOMAXPROCS)")
	runs := flag.Int("runs", 3, "timing runs per configuration for -workers (best kept)")
	concurrent := flag.Int("concurrent", 0, "print the concurrent-parsing throughput table for this many goroutines (0 = skip; -1 = GOMAXPROCS)")
	compiled := flag.Bool("compiled", false, "also build and time the generated parsers and print the interpreter-vs-generated table")
	stream := flag.Bool("stream", false, "print the streaming table (throughput, bounded memory, incremental edit latency); with -json, persist the stream counters too")
	jsonOut := flag.String("json", "", "write a machine-readable result set (counters + timings) to this file")
	compare := flag.String("compare", "", "rerun at the baseline file's seed/lines and diff against it; exit 1 on regression")
	compareThreshold := flag.Float64("compare-threshold", 0.15, "tolerated fractional lines/sec regression for -compare")
	compareTiming := flag.Bool("compare-timing", true, "compare timings for -compare (disable when the baseline is from different hardware, e.g. CI)")
	hotspots := flag.Bool("hotspots", false, "print per-grammar coverage reports and hotspot attribution")
	hotspotTop := flag.Int("hotspot-top", 10, "hotspot rows per grammar for -hotspots")
	coverHTML := flag.String("cover-html", "", "write one self-contained HTML hotspot report per grammar into this directory")
	flag.Parse()

	if *compare != "" {
		if err := runCompare(*compare, *compareThreshold, *compareTiming, *runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *compiled || *jsonOut != "" {
		rs, err := bench.RunResultSet(*seed, *lines, *runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *compiled {
			if err := rs.AddCompiled(compiledRunner); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println("== Interpreter vs generated parser ==")
			bench.CompiledTable(os.Stdout, rs)
		}
		if *stream {
			if err := rs.AddStream(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *jsonOut == "" {
			return
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rs.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (seed=%d lines=%d)\n", *jsonOut, *seed, *lines)
		return
	}
	if *hotspots || *coverHTML != "" {
		if *hotspots {
			if err := bench.Hotspots(os.Stdout, *seed, *lines, *hotspotTop); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *coverHTML != "" {
			files, err := bench.WriteHTMLReports(*coverHTML, *seed, *lines)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, f := range files {
				fmt.Println("wrote", f)
			}
		}
		return
	}

	if *stream {
		fmt.Println("== Streaming parse sessions ==")
		if err := bench.StreamTable(os.Stdout, *seed, *lines); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *profile {
		if err := analysisProfile(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *workers != 0 || *concurrent != 0 {
		if *workers != 0 {
			fmt.Println("== Parallel analysis speedup ==")
			if err := bench.AnalysisSpeedup(os.Stdout, *workers, *runs); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		if *concurrent != 0 {
			fmt.Println("== Concurrent parsing throughput ==")
			if err := bench.ConcurrentParses(os.Stdout, int64(*seed), *lines, *concurrent); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	run := func(n int, f func() error, title string) {
		if *table != 0 && *table != n {
			return
		}
		fmt.Printf("== Table %d: %s ==\n", n, title)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "table %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	out := os.Stdout
	run(1, func() error { return bench.Table1(out) }, "grammar decision characteristics")
	run(2, func() error { return bench.Table2(out) }, "fixed lookahead decision characteristics")
	run(3, func() error { return bench.Table3(out, *seed, *lines) }, "parser decision lookahead depth")
	run(4, func() error { return bench.Table4(out, *seed, *lines) }, "parser decision backtracking behavior")
	if *memo {
		fmt.Println("== Memoization cache ==")
		if err := bench.MemoStats(out, *seed, *lines); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runCompare reruns the workloads at the baseline's recorded seed and
// input size, then diffs: deterministic counters must match exactly;
// timings may regress up to the threshold (skipped with
// -compare-timing=false, the cross-machine CI mode).
func runCompare(path string, threshold float64, timing bool, runs int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	baseline, err := bench.ReadResults(f)
	f.Close()
	if err != nil {
		return err
	}
	cur, err := bench.RunResultSet(baseline.Seed, baseline.Lines, runs)
	if err != nil {
		return err
	}
	// A baseline recorded with -compiled gates the generated engine
	// too, so the rerun must build and time it as well.
	for _, w := range baseline.Workloads {
		if w.GenTokens != 0 {
			if err := cur.AddCompiled(compiledRunner); err != nil {
				return err
			}
			break
		}
	}
	// Same for a baseline recorded with -stream.
	if baseline.Stream != nil {
		if err := cur.AddStream(); err != nil {
			return err
		}
	} else {
		for _, w := range baseline.Workloads {
			if w.StreamEvents != 0 {
				if err := cur.AddStream(); err != nil {
					return err
				}
				break
			}
		}
	}
	if !bench.Compare(os.Stdout, baseline, cur, bench.CompareOptions{Threshold: threshold, Timing: timing}) {
		return fmt.Errorf("bench regressions against %s", path)
	}
	fmt.Printf("no regressions against %s\n", path)
	return nil
}

// analysisProfile prints, per benchmark grammar, the most expensive
// parsing decisions of the static analysis (time, DFA states, closure
// calls) — the data behind Table 1's "Runtime" column.
func analysisProfile(out *os.File) error {
	const top = 5
	for _, w := range bench.Workloads {
		g, err := w.LoadFresh()
		if err != nil {
			return fmt.Errorf("%s: %v", w.Name, err)
		}
		fmt.Fprintln(out, g.Summary())
		prof := g.AnalysisProfile()
		n := len(prof)
		if n > top {
			n = top
		}
		for _, d := range prof[:n] {
			extra := ""
			if d.Fallback != "" {
				extra = "  fallback: " + d.Fallback
			}
			fmt.Fprintf(out, "  d%-4d %-9s %6d states %8d closures %10v  %s%s\n",
				d.ID, d.Class, d.DFAStates, d.ClosureCalls, d.Elapsed, d.Desc, extra)
		}
		fmt.Fprintln(out)
	}
	return nil
}
