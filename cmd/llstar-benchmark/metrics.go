package main

import (
	"math"
	"sort"
)

// metric is one measured value with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric every workload reports. exact marks
// counts that depend only on the generated inputs, so two runs with the
// same seed must agree on them to the last digit.
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEnd lists the metrics a user of llstar sees. Every workload
// reports all of them; what one "operation" is depends on the workload
// (see README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "p50_ms", unit: "ms"},
	{name: "p90_ms", unit: "ms"},
	{name: "throughput", unit: "1/s"},
	{name: "peak_rss_mb", unit: "MiB"},
}

// perLayer lists the layer metrics of a traced run. Every workload
// reports all of them: the process metrics cover the process doing the
// workload's timed work, and the probes time each module's public
// functions over the workload's own inputs.
var perLayer = []metricDef{
	{name: "proc.cpu_ms_per_op", unit: "ms"},
	{name: "proc.alloc_kb_per_op", unit: "KiB"},
	{name: "proc.gc_pause_ms_per_s", unit: "ms/s"},

	{name: "meta.parse_ms", unit: "ms"},
	{name: "grammar.validate_ms", unit: "ms"},
	{name: "atn.build_ms", unit: "ms"},
	{name: "core.dfa_ms", unit: "ms"},
	{name: "core.dfa_states", unit: "count", exact: true},
	{name: "serde.encode_ms", unit: "ms"},
	{name: "serde.decode_ms", unit: "ms"},
	{name: "serde.instantiate_ms", unit: "ms"},
	{name: "serde.artifact_kb", unit: "KiB"},

	{name: "lexrt.ns_per_token", unit: "ns"},
	{name: "interp.parse_ns_per_token", unit: "ns"},
	{name: "interp.tree_ns_per_token", unit: "ns"},
	{name: "interp.string_ns_per_token", unit: "ns"},
	{name: "interp.alloc_bytes_per_token", unit: "B"},
	{name: "interp.attributed_pct", unit: "%"},
	{name: "interp.tokens", unit: "count", exact: true},
	{name: "interp.predictions", unit: "count", exact: true},
	{name: "interp.backtrack_predictions", unit: "count", exact: true},
	{name: "interp.avg_k", unit: "tokens", exact: true},
	{name: "runtime.memo_hits", unit: "count", exact: true},
	{name: "runtime.memo_misses", unit: "count", exact: true},
	{name: "interp.lines_per_s.java15", unit: "lines/s"},
	{name: "interp.lines_per_s.ratsc", unit: "lines/s"},
	{name: "interp.lines_per_s.ratsjava", unit: "lines/s"},
	{name: "interp.lines_per_s.vbnet", unit: "lines/s"},
	{name: "interp.lines_per_s.tsql", unit: "lines/s"},
	{name: "interp.lines_per_s.csharp", unit: "lines/s"},
	{name: "obs.tax_ratio", unit: "ratio"},

	{name: "server.parse_ms_p50", unit: "ms"},
	{name: "server.overhead_ms_p50", unit: "ms"},
	{name: "server.alloc_kb_per_req", unit: "KiB"},

	{name: "stream.open_ms", unit: "ms"},
	{name: "stream.edit_ms_p50", unit: "ms"},
	{name: "stream.edit_over_full", unit: "ratio"},
	{name: "stream.token_reuse_ratio", unit: "ratio", exact: true},
	{name: "stream.relexed_tokens_mean", unit: "count", exact: true},
	{name: "stream.memo_reused_mean", unit: "count", exact: true},
	{name: "stream.memo_dropped_mean", unit: "count", exact: true},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// perGrammarQuantile is the workload latency statistic: the geometric
// mean over grammars of each grammar's q-quantile. Taking the quantile
// per grammar keeps the statistic from jumping between the grammars'
// very different cost levels when the seeded mix shifts.
func perGrammarQuantile(byGrammar [][]float64, q float64) float64 {
	var qs []float64
	for _, xs := range byGrammar {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return geomean(qs)
}

func ms(ns float64) float64 { return ns / 1e6 }
