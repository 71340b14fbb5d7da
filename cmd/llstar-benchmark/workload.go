package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"llstar"
	"llstar/internal/bench"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

// workloads are the benchmark's traffic mixes, in run order. The why of
// each is repeated in BENCHMARK.json and README.md.
var workloads = []workload{
	{"serve-small", "50-line /v1/parse requests to a child llstar-serve: per-request fixed costs (HTTP, JSON, instrumentation, lexer warm-up) dominate", runServeSmall},
	{"parse-large", "in-process parses of 2000-line inputs: prediction, speculation and tree building dominate; server and obs costs are bypassed", runParseLarge},
	{"grammar-load", "cold llstar.Load of the six grammars: meta-parse, ATN and lookahead-DFA construction, no parsing", runGrammarLoad},
	{"artifact-load", "warm llstar.UnmarshalAnalysis of the six grammars' artifacts: serde decode and front-end replay, no DFA construction", runArtifactLoad},
	{"session-edit", "one-digit edits to incremental sessions over two 2000-line documents per grammar: relexing and rule reparse over retained tokens and memo", runSessionEdit},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// config sizes a run. The defaults are the benchmark; the self-test
// shrinks them.
type config struct {
	seed    int64
	measure time.Duration // measured time per workload
	trace   bool

	smallLines  int // lines per serve-small request
	variants    int // serve-small inputs per grammar
	largeLines  int // lines per parse-large input and session document
	docs        int // parse-large inputs and sessions per grammar
	setupReps   int // set-ups per run; setup_s is their median
	probeReps   int // repetitions of each layer probe; the median is kept
	streamEdits int // edits per session in the stream probe
}

func defaultConfig(seed int64, measure time.Duration, trace bool) config {
	return config{
		seed: seed, measure: measure, trace: trace,
		smallLines: 50, variants: 32, largeLines: 2000, docs: 2,
		setupReps: 5, probeReps: 3, streamEdits: 20,
	}
}

// result is everything one workload run measured.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	Layers    []metric `json:"per_layer,omitempty"`
	SelfTimes []metric `json:"self_times,omitempty"`
	Extra     []metric `json:"extra,omitempty"`
	Meta      runMeta  `json:"meta"`
}

// run is the state of one workload run.
type run struct {
	cfg      config
	tr       *tracer // nil when untraced
	tmp      string  // scratch directory, removed after the run
	res      result
	inputs   hash.Hash
	firstErr error
}

// fail counts a failed operation; the first error is reported.
func (r *run) fail(err error) {
	r.res.Failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// addInput feeds generated input into the run's input digest.
func (r *run) addInput(parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(r.inputs, "%d:%s", len(p), p)
	}
}

// runOne runs a workload in this process.
func runOne(w workload, cfg config) (*result, *tracer, error) {
	tmp, err := os.MkdirTemp("", "llstar-benchmark-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{cfg: cfg, tmp: tmp, inputs: sha256.New()}
	r.res.Workload = w.name
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %d failed operations; first: %v\n", w.name, r.res.Failed, r.firstErr)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	r.res.Meta = newRunMeta(cfg, hex.EncodeToString(r.inputs.Sum(nil)))
	if r.tr != nil {
		r.res.SelfTimes = r.tr.selfTimes()
	}
	return &r.res, r.tr, nil
}

// setE2E records the end-to-end metrics.
func (r *run) setE2E(setups []time.Duration, lat [][]float64, throughput, rssMiB float64) {
	var s []float64
	for _, d := range setups {
		s = append(s, d.Seconds())
	}
	r.res.EndToEnd = []metric{
		{Name: "setup_s", Value: median(s), Unit: "s"},
		{Name: "p50_ms", Value: perGrammarQuantile(lat, 0.50), Unit: "ms"},
		{Name: "p90_ms", Value: perGrammarQuantile(lat, 0.90), Unit: "ms"},
		{Name: "throughput", Value: throughput, Unit: "1/s"},
		{Name: "peak_rss_mb", Value: rssMiB, Unit: "MiB"},
	}
}

// repeatSetup runs fn cfg.setupReps times, timing each.
func (r *run) repeatSetup(fn func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < r.cfg.setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// loop calls op with k = 0, 1, ... until the measured time has passed.
func (r *run) loop(op func(k int)) {
	end := time.Now().Add(r.cfg.measure)
	for k := 0; k == 0 || time.Now().Before(end); k++ {
		op(k)
		r.res.Attempted++
	}
}

// spec is one benchmark grammar: its internal/bench workload, the name
// llstar-serve gives it (the file stem), and its source.
type spec struct {
	w    bench.Workload
	stem string
	text string
}

func specs() ([]spec, error) {
	out := make([]spec, len(bench.Workloads))
	for i, w := range bench.Workloads {
		text, err := w.GrammarText()
		if err != nil {
			return nil, err
		}
		out[i] = spec{w: w, stem: strings.TrimSuffix(w.File, filepath.Ext(w.File)), text: text}
	}
	return out, nil
}

// loadAll cold-loads every grammar.
func loadAll(sp []spec) ([]*llstar.Grammar, error) {
	gs := make([]*llstar.Grammar, len(sp))
	for i, s := range sp {
		g, err := llstar.Load(s.w.File, s.text)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", s.stem, err)
		}
		gs[i] = g
	}
	return gs, nil
}

// writeGrammars materializes the grammar sources into dir.
func writeGrammars(sp []spec, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range sp {
		if err := os.WriteFile(filepath.Join(dir, s.w.File), []byte(s.text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Input purposes keep the seeded streams of different inputs apart.
const (
	purposeSmall = iota + 1
	purposeLarge
	purposeSample
	purposeSchedule
	purposeEdits
	purposeOrder
	purposeStreamProbe
)

// subSeed derives the seed of one generated input from the run seed.
func subSeed(seed int64, purpose, g, k int) int64 {
	return seed*1_000_003 + int64(purpose)*100_000 + int64(g)*1_000 + int64(k)
}

func (r *run) rng(purpose int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(r.cfg.seed, purpose, 0, 0)))
}

// input is one generated parse input.
type input struct {
	g     int // index into specs
	text  string
	lines int
	want  string // expected Tree.String()
}

// genInputs generates n inputs of the given size per grammar.
func (r *run) genInputs(sp []spec, purpose, n, lines int) []input {
	var out []input
	for g, s := range sp {
		for k := 0; k < n; k++ {
			text := s.w.Input(subSeed(r.cfg.seed, purpose, g, k), lines)
			r.addInput(text)
			out = append(out, input{g: g, text: text, lines: strings.Count(text, "\n")})
		}
	}
	return out
}

// expect fills in each input's expected tree, where missing, with a
// fresh in-process parse.
func expect(sp []spec, gs []*llstar.Grammar, ins []input) error {
	for i := range ins {
		in := &ins[i]
		if in.want != "" {
			continue
		}
		tree, err := gs[in.g].NewParser(llstar.WithTree()).Parse(sp[in.g].w.Start, in.text)
		if err != nil {
			return fmt.Errorf("%s input %d: %w", sp[in.g].stem, i, err)
		}
		in.want = tree.String()
	}
	return nil
}
