package cover

import (
	"fmt"
	"html/template"
	"io"

	"llstar/internal/runtime"
)

// WriteHTML renders the snapshot as a single self-contained HTML page:
// the summary, the strategy split, the full hotspot table, per-rule
// coverage, and the uncovered-item lists. No external assets, so the
// file can be archived next to bench results or served live.
func (s *Snapshot) WriteHTML(w io.Writer) error {
	sum := s.Summarize()
	st := s.StrategyTotals()
	total := s.TotalPredictions()
	var strategies []map[string]any
	for i := runtime.Strategy(0); i < runtime.NumStrategies; i++ {
		strategies = append(strategies, map[string]any{
			"Name":  i.String(),
			"Count": st[i],
			"Pct":   pct(st[i], total),
		})
	}
	type ruleRow struct {
		Name        string
		Invocations int64
		MemoHits    int64
		MemoMisses  int64
	}
	var rules []ruleRow
	for i := range s.Rules {
		name := fmt.Sprintf("#%d", i)
		if i < len(s.Meta.Rules) {
			name = s.Meta.Rules[i]
		}
		r := &s.Rules[i]
		rules = append(rules, ruleRow{name, r.Invocations, r.MemoHits, r.MemoMisses})
	}
	var deadDecs []DecisionMeta
	for i := range s.Decisions {
		if s.Decisions[i].Predictions == 0 {
			deadDecs = append(deadDecs, s.Meta.Decisions[i])
		}
	}
	data := map[string]any{
		"Summary":    sum,
		"Strategies": strategies,
		"Hotspots":   s.Hotspots(),
		"Rules":      rules,
		"DeadRules":  s.uncoveredRules(),
		"DeadDecs":   deadDecs,
		"RulePct":    pct(int64(sum.RulesCovered), int64(sum.RulesTotal)),
		"DecPct":     pct(int64(sum.DecisionsHit), int64(sum.DecisionsTotal)),
		"AltPct":     pct(int64(sum.AltsCovered), int64(sum.AltsTotal)),
		"StatePct":   pct(int64(sum.DFAStatesHit), int64(sum.DFAStatesTotal)),
	}
	return htmlTmpl.Execute(w, data)
}

var htmlTmpl = template.Must(template.New("cover").Funcs(template.FuncMap{
	"pctf": func(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) },
	"pct1": func(f float64) string { return fmt.Sprintf("%.1f%%", f) },
	"strat": func(c DecisionCoverage, i int) int64 {
		return c.Strategy[i]
	},
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>llstar coverage — {{.Summary.Grammar}}</title>
<style>
body { font: 14px/1.5 -apple-system, "Segoe UI", sans-serif; margin: 2em auto; max-width: 72em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; margin: 0.5em 0; }
th, td { text-align: right; padding: 0.25em 0.6em; border-bottom: 1px solid #ddd; font-variant-numeric: tabular-nums; }
th { background: #f5f5f5; }
th:first-child, td:first-child, th.l, td.l { text-align: left; }
td.hot { background: #fff1f0; }
.cards { display: flex; gap: 1em; flex-wrap: wrap; }
.card { border: 1px solid #ddd; border-radius: 6px; padding: 0.6em 1em; min-width: 9em; }
.card b { font-size: 1.3em; display: block; }
.muted { color: #888; }
code { background: #f5f5f5; padding: 0 0.25em; border-radius: 3px; }
</style>
</head>
<body>
<h1>Grammar coverage &amp; hotspots — <code>{{.Summary.Grammar}}</code></h1>
<p class="muted">{{.Summary.Parses}} parses · {{.Summary.Tokens}} tokens · {{.Summary.ParseErrors}} parse errors</p>
<div class="cards">
<div class="card"><b>{{.Summary.RulesCovered}}/{{.Summary.RulesTotal}}</b>rules ({{pct1 .RulePct}})</div>
<div class="card"><b>{{.Summary.DecisionsHit}}/{{.Summary.DecisionsTotal}}</b>decisions ({{pct1 .DecPct}})</div>
<div class="card"><b>{{.Summary.AltsCovered}}/{{.Summary.AltsTotal}}</b>alternatives ({{pct1 .AltPct}})</div>
<div class="card"><b>{{.Summary.DFAStatesHit}}/{{.Summary.DFAStatesTotal}}</b>DFA states ({{pct1 .StatePct}})</div>
<div class="card"><b>{{.Summary.WastedTokens}}</b>wasted spec tokens</div>
</div>

<h2>Prediction strategies</h2>
<table>
<tr><th class="l">strategy</th><th>events</th><th>share</th></tr>
{{range .Strategies}}<tr><td class="l">{{.Name}}</td><td>{{.Count}}</td><td>{{pct1 .Pct}}</td></tr>
{{end}}</table>

<h2>Hotspots</h2>
<table>
<tr><th class="l">decision</th><th class="l">rule</th><th class="l">class</th><th>predicts</th><th>LL(1)</th><th>LL(k)</th><th>cyclic</th><th>backtrack</th><th>spec tokens</th><th>wasted</th><th>wasted share</th><th>max k</th><th>resyncs</th></tr>
{{range .Hotspots}}<tr><td class="l">d{{.Meta.ID}}</td><td class="l">{{.Meta.Rule}}</td><td class="l">{{.Meta.Class}}</td><td>{{.Cov.Predictions}}</td><td>{{strat .Cov 0}}</td><td>{{strat .Cov 1}}</td><td>{{strat .Cov 2}}</td><td>{{strat .Cov 3}}</td><td>{{.Cov.SpecTokens}}</td>{{if gt .Cov.WastedSpecTokens 0}}<td class="hot">{{.Cov.WastedSpecTokens}}</td>{{else}}<td>0</td>{{end}}<td>{{pctf .WastedShare}}</td><td>{{.Cov.MaxK}}</td><td>{{.Cov.Resyncs}}</td></tr>
{{end}}</table>

<h2>Rules</h2>
<table>
<tr><th class="l">rule</th><th>invocations</th><th>memo hits</th><th>memo misses</th></tr>
{{range .Rules}}<tr><td class="l">{{.Name}}</td><td>{{.Invocations}}</td><td>{{.MemoHits}}</td><td>{{.MemoMisses}}</td></tr>
{{end}}</table>

{{if .DeadRules}}<h2>Rules never invoked</h2>
<ul>{{range .DeadRules}}<li><code>{{.}}</code></li>{{end}}</ul>{{end}}

{{if .DeadDecs}}<h2>Decisions never exercised</h2>
<table>
<tr><th class="l">decision</th><th class="l">rule</th><th class="l">class</th><th class="l">description</th></tr>
{{range .DeadDecs}}<tr><td class="l">d{{.ID}}</td><td class="l">{{.Rule}}</td><td class="l">{{.Class}}</td><td class="l">{{.Desc}}</td></tr>
{{end}}</table>{{end}}
</body>
</html>
`))
