// Command llstar-benchmark is llstar's end-to-end benchmark. It
// generates every input from -seed, runs five workloads against the
// llstar-serve command and the llstar library, checks every output, and
// prints each metric as "workload metric value unit". A traced run
// (-trace) also times calls into each internal module and prints the
// per-layer metrics. See README.md for the workloads and metrics.
//
// From this directory:
//
//	go run . -seed 1 -out results.json     # every workload, one process each
//	go run . -seed 1 -trace trace.json     # untraced, then traced: per-layer metrics and tracing overhead
//	go run . -workload parse-large -seed 3 # one workload in this process
//
// With -workload the last line of standard output is a JSON summary:
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics, or the per-layer metrics when traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

func main() {
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	out := flag.String("out", "", "also write all results, with run metadata, as JSON to this file")
	trace := flag.String("trace", "", `traced run: write the benchmark's spans as a Chrome trace to this file and report per-layer metrics ("1": a file in the temporary directory; "" or "0": untraced)`)
	name := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in its own process)")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload")
	flag.Parse()
	if *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	// One load-generating process on at most two cores, whatever the
	// host has, so runs on different hosts load the server alike.
	if runtime.GOMAXPROCS(0) > conns {
		runtime.GOMAXPROCS(conns)
	}
	measure := time.Duration(*seconds * float64(time.Second))
	var err error
	if *name == "" {
		err = runAll(*seed, measure, *trace, *out)
	} else {
		err = runSingle(*name, *seed, measure, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "llstar-benchmark:", err)
		os.Exit(1)
	}
}

// tracePath resolves the -trace flag for one workload.
func tracePath(flagValue, workload string) string {
	switch flagValue {
	case "", "0":
		return ""
	case "1":
		return filepath.Join(os.TempDir(), "llstar-benchmark-trace-"+workload+".json")
	}
	return flagValue
}

// runSingle runs one workload in this process.
func runSingle(name string, seed int64, measure time.Duration, traceFlag, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	path := tracePath(traceFlag, name)
	res, tr, err := runOne(w, defaultConfig(seed, measure, path != ""))
	if err != nil {
		return err
	}
	if err := printResult(os.Stdout, res); err != nil {
		return err
	}
	if path != "" {
		if err := tr.writeChrome(path, workloadIndex(name)+1); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: trace written to %s\n", name, path)
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	metrics := res.EndToEnd
	if path != "" {
		metrics = res.Layers
	}
	if err := printSummary(os.Stdout, res, metrics); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

// printResult prints every metric of a run as "workload metric value
// unit", preceded by a comment line identifying the run.
func printResult(w io.Writer, res *result) error {
	m := res.Meta
	fmt.Fprintf(w, "# %s seed=%d seconds=%g traced=%t inputs_sha256=%s nproc=%d gomaxprocs=%d go=%s revision=%s\n",
		res.Workload, m.Seed, m.Seconds, m.Traced, m.InputsSHA256, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Revision)
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", res.Workload, res.Attempted, res.Workload, res.Failed)
	for _, group := range [][]metric{res.EndToEnd, res.Extra, res.Layers, res.SelfTimes} {
		for _, x := range group {
			if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
				return fmt.Errorf("%s: metric %s was not measured", res.Workload, x.Name)
			}
			fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, x.Name, strconv.FormatFloat(x.Value, 'g', -1, 64), x.Unit)
		}
	}
	return nil
}

// printSummary prints the one-line JSON summary of a single-workload
// run.
func printSummary(w io.Writer, res *result, ms []metric) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for _, m := range ms {
		summary.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runMeta identifies a run, so that two runs can show they measured the
// same inputs and runs from different hosts are not compared unawares.
type runMeta struct {
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Traced       bool    `json:"traced"`
	InputsSHA256 string  `json:"inputs_sha256"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Revision     string  `json:"vcs_revision"`
}

func newRunMeta(cfg config, inputsSHA string) runMeta {
	m := runMeta{
		Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Traced: cfg.trace,
		InputsSHA256: inputsSHA,
		NumCPU:       runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.Revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		m.Revision += dirty
	}
	return m
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload, each in a fresh process so that heap, GC
// state and peak RSS never carry over from one workload to the next.
// With tracing on it then reruns each traced and reports how much the
// tracing moved p50_ms.
func runAll(seed int64, measure time.Duration, traceFlag, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "llstar-benchmark-all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	child := func(name, traceFile string) (*result, error) {
		resFile := filepath.Join(tmp, name+".json")
		args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(measure.Seconds(), 'g', -1, 64), "-out", resFile}
		if traceFile != "" {
			args = append(args, "-trace", traceFile)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		data, err := os.ReadFile(resFile)
		if err != nil {
			return nil, err
		}
		var res result
		return &res, json.Unmarshal(data, &res)
	}

	all := struct {
		Untraced []*result         `json:"untraced"`
		Traced   []*result         `json:"traced,omitempty"`
		Overhead map[string]metric `json:"trace_overhead_pct,omitempty"`
	}{}
	for _, w := range workloads {
		res, err := child(w.name, "")
		if err != nil {
			return err
		}
		all.Untraced = append(all.Untraced, res)
	}
	if path := tracePath(traceFlag, "all"); path != "" {
		all.Overhead = map[string]metric{}
		var parts []string
		for i, w := range workloads {
			part := filepath.Join(tmp, w.name+".trace.json")
			res, err := child(w.name, part)
			if err != nil {
				return err
			}
			all.Traced = append(all.Traced, res)
			parts = append(parts, part)
			base, traced := find(all.Untraced[i].EndToEnd, "p50_ms"), find(res.EndToEnd, "p50_ms")
			m := metric{Name: "trace.overhead_pct", Value: 100 * (traced - base) / base, Unit: "%"}
			all.Overhead[w.name] = m
			fmt.Printf("%s %s %s %s\n", w.name, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		if err := mergeTraces(path, parts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	}
	if out != "" {
		return writeJSON(out, all)
	}
	return nil
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// mergeTraces concatenates the workloads' Chrome trace arrays.
func mergeTraces(path string, parts []string) error {
	var all []json.RawMessage
	for _, p := range parts {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var evs []json.RawMessage
		if err := json.Unmarshal(data, &evs); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, evs...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
