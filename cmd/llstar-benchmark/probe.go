package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"llstar"
	"llstar/internal/atn"
	"llstar/internal/core"
	"llstar/internal/grammar"
	"llstar/internal/interp"
	"llstar/internal/lexrt"
	"llstar/internal/meta"
	llrt "llstar/internal/runtime"
	"llstar/internal/serde"
	"llstar/internal/server"
	"llstar/internal/token"
)

// The layer probes run only in a traced run, after the timed phase, so
// they never inflate an end-to-end metric. Each times calls into one
// module's public functions over the workload's own inputs and records a
// span per call; the per-layer metrics are computed from those spans.

// probe appends every per-layer metric to the result: the timed phase's
// process metrics, then the load, parse, server and stream probes.
func (r *run) probe(sp []spec, gs []*llstar.Grammar, ins []input, proc []metric) error {
	if r.tr == nil {
		return nil
	}
	if err := expect(sp, gs, ins); err != nil {
		return err
	}
	r.res.Layers = append(r.res.Layers, proc...)
	r.res.Layers = append(r.res.Layers, r.probeLoad(sp)...)
	r.res.Layers = append(r.res.Layers, r.probeParse(sp, gs, ins)...)
	srv, err := r.probeServer(sp, ins)
	if err != nil {
		return err
	}
	r.res.Layers = append(r.res.Layers, srv...)
	r.res.Layers = append(r.res.Layers, r.probeStream(sp, gs, ins)...)
	return nil
}

// probeLoad splits a cold and a warm load of every grammar into the
// front end (meta, grammar), ATN construction, DFA construction (core)
// and the artifact path (serde).
func (r *run) probeLoad(sp []spec) []metric {
	tr := r.tr
	var states, artBytes int
	for rep := 0; rep < r.cfg.probeReps; rep++ {
		id := int64(rep)
		for _, s := range sp {
			err := func() error {
				var g *grammar.Grammar
				var err error
				tr.call("meta.parse", id, s.stem, func() { g, err = meta.Parse(s.w.File, s.text) })
				if err != nil {
					return err
				}
				var issues []grammar.Issue
				tr.call("grammar.validate", id, s.stem, func() { issues = grammar.Validate(g) })
				if err := grammar.FirstFatal(issues); err != nil {
					return err
				}
				tr.call("atn.build", id, s.stem, func() { _, err = atn.Build(g) })
				if err != nil {
					return err
				}
				var res *core.Result
				tr.call("core.analyze", id, s.stem, func() { res, err = core.Analyze(g, core.Options{}) })
				if err != nil {
					return err
				}
				var data []byte
				tr.call("serde.encode", id, s.stem, func() { data = serde.FromResult(res, s.w.File, s.text, serde.Options{}).Encode() })
				var a *serde.Artifact
				tr.call("serde.decode", id, s.stem, func() { a, err = serde.Decode(data) })
				if err != nil {
					return err
				}
				g2, err := meta.Parse(a.Name, a.Source)
				if err != nil {
					return err
				}
				if err := grammar.FirstFatal(grammar.Validate(g2)); err != nil {
					return err
				}
				tr.call("serde.instantiate", id, s.stem, func() { _, err = serde.Instantiate(a, g2) })
				if err != nil {
					return err
				}
				if rep == 0 {
					for _, d := range res.DFAs {
						states += d.NumStates()
					}
					artBytes += len(data)
				}
				return nil
			}()
			if err != nil {
				r.fail(fmt.Errorf("load probe %s: %w", s.stem, err))
			}
		}
	}
	m := func(name string) float64 { return ms(tr.medianSum(name, "")) }
	return []metric{
		{Name: "meta.parse_ms", Value: m("meta.parse"), Unit: "ms"},
		{Name: "grammar.validate_ms", Value: m("grammar.validate"), Unit: "ms"},
		{Name: "atn.build_ms", Value: m("atn.build"), Unit: "ms"},
		{Name: "core.dfa_ms", Value: m("core.analyze") - m("atn.build"), Unit: "ms"},
		{Name: "core.dfa_states", Value: float64(states), Unit: "count"},
		{Name: "serde.encode_ms", Value: m("serde.encode"), Unit: "ms"},
		{Name: "serde.decode_ms", Value: m("serde.decode"), Unit: "ms"},
		{Name: "serde.instantiate_ms", Value: m("serde.instantiate"), Unit: "ms"},
		{Name: "serde.artifact_kb", Value: float64(artBytes) / 1024, Unit: "KiB"},
	}
}

// lex runs the grammar's lexer over text to EOF.
func lex(lm *atn.LexMachine, text string) ([]token.Token, error) {
	lx := lexrt.New(lm, text)
	var toks []token.Token
	for {
		t, err := lx.NextToken()
		if err != nil {
			return nil, err
		}
		if t.Type == token.EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

// probeParse splits a parse into lexing (lexrt), prediction and
// matching without a tree, tree building (interp over pre-lexed tokens)
// and rendering, and measures the serving pool's instrumentation (obs,
// cover) against a plain tree-building parse.
func (r *run) probeParse(sp []spec, gs []*llstar.Grammar, ins []input) []metric {
	tr := r.tr
	type parsers struct {
		bare, tree *interp.Parser
		full, obs  *llstar.Parser
		stats      *llstar.Parser
	}
	ps := make([]parsers, len(gs))
	for i, g := range gs {
		res := g.AnalysisResult()
		ps[i] = parsers{
			bare:  interp.New(res, interp.Options{}),
			tree:  interp.New(res, interp.Options{BuildTree: true}),
			full:  g.NewParser(llstar.WithTree()),
			obs:   g.NewParser(llstar.WithTree(), llstar.WithStats(), llstar.WithMetrics(llstar.NewMetrics()), llstar.WithCoverage(g.NewCoverage())),
			stats: g.NewParser(llstar.WithStats()),
		}
	}
	alloc := newMeter()
	var tokens, predictions, backtracks, memoHits, memoMisses int
	var sumK int64
	lines := make([]int, len(sp))
	for rep := 0; rep < r.cfg.probeReps; rep++ {
		id := int64(rep)
		for _, in := range ins {
			s, p := sp[in.g], ps[in.g]
			start := s.w.Start
			err := func() error {
				var toks []token.Token
				var err error
				tr.call("lexrt.lex", id, s.stem, func() { toks, err = lex(gs[in.g].AnalysisResult().Machine.Lex, in.text) })
				if err != nil {
					return err
				}
				src := func() *llrt.TokenStream { return llrt.NewTokenStream(&llrt.SliceSource{Tokens: toks}) }
				ts := src()
				tr.call("interp.parse", id, s.stem, func() { _, err = p.bare.ParseTokens(start, ts) })
				if err != nil {
					return err
				}
				ts = src()
				tr.call("interp.parse_tree", id, s.stem, func() { _, err = p.tree.ParseTokens(start, ts) })
				if err != nil {
					return err
				}
				var tree *llstar.Tree
				t0, d := alloc.time(func() { tree, err = p.full.Parse(start, in.text) })
				tr.add("llstar.parse", t0, d, -1, id, s.stem, 0)
				if err != nil {
					return err
				}
				var text string
				tr.call("interp.string", id, s.stem, func() { text = tree.String() })
				if text != in.want {
					return fmt.Errorf("tree differs from the reference parse")
				}
				tr.call("obs.parse", id, s.stem, func() { _, err = p.obs.Parse(start, in.text) })
				if err != nil || rep > 0 {
					return err
				}
				if _, err := p.stats.Parse(start, in.text); err != nil {
					return err
				}
				st := p.stats.Stats()
				for _, d := range st.Decisions {
					predictions += d.Events
					backtracks += d.BacktrackEvents
					sumK += d.SumK
				}
				memoHits += st.MemoHits
				memoMisses += st.MemoMisses
				tokens += len(toks)
				lines[in.g] += in.lines
				return nil
			}()
			if err != nil {
				r.fail(fmt.Errorf("parse probe %s: %w", s.stem, err))
			}
		}
	}
	perTok := func(ns float64) float64 { return ns / float64(max(tokens, 1)) }
	lexNS := tr.medianSum("lexrt.lex", "")
	parseNS := tr.medianSum("interp.parse", "")
	treeNS := tr.medianSum("interp.parse_tree", "")
	fullNS := tr.medianSum("llstar.parse", "")
	out := []metric{
		{Name: "lexrt.ns_per_token", Value: perTok(lexNS), Unit: "ns"},
		{Name: "interp.parse_ns_per_token", Value: perTok(parseNS), Unit: "ns"},
		{Name: "interp.tree_ns_per_token", Value: perTok(treeNS - parseNS), Unit: "ns"},
		{Name: "interp.string_ns_per_token", Value: perTok(tr.medianSum("interp.string", "")), Unit: "ns"},
		{Name: "interp.alloc_bytes_per_token", Value: perTok(float64(alloc.alloc) / float64(r.cfg.probeReps)), Unit: "B"},
		{Name: "interp.attributed_pct", Value: 100 * (lexNS + treeNS) / fullNS, Unit: "%"},
		{Name: "interp.tokens", Value: float64(tokens), Unit: "count"},
		{Name: "interp.predictions", Value: float64(predictions), Unit: "count"},
		{Name: "interp.backtrack_predictions", Value: float64(backtracks), Unit: "count"},
		{Name: "interp.avg_k", Value: float64(sumK) / float64(max(predictions, 1)), Unit: "tokens"},
		{Name: "runtime.memo_hits", Value: float64(memoHits), Unit: "count"},
		{Name: "runtime.memo_misses", Value: float64(memoMisses), Unit: "count"},
	}
	for g, s := range sp {
		sec := tr.medianSum("llstar.parse", s.stem) / 1e9
		out = append(out, metric{Name: "interp.lines_per_s." + s.stem, Value: float64(lines[g]) / sec, Unit: "lines/s"})
	}
	return append(out, metric{Name: "obs.tax_ratio", Value: tr.medianSum("obs.parse", "") / fullNS, Unit: "ratio"})
}

// parseRequest and parseReply are the /v1/parse wire fields the
// benchmark uses.
type parseRequest struct {
	Grammar string `json:"grammar"`
	Rule    string `json:"rule"`
	Input   string `json:"input"`
}

type parseReply struct {
	OK        bool   `json:"ok"`
	Text      string `json:"text"`
	ElapsedUS int64  `json:"elapsed_us"`
}

func requestBody(s spec, in input) ([]byte, error) {
	return json.Marshal(parseRequest{Grammar: s.stem, Rule: s.w.Start, Input: in.text})
}

// checkReply decodes a /v1/parse response and checks it against the
// input's expected tree.
func checkReply(code int, body []byte, in input) (parseReply, error) {
	var rep parseReply
	if code != http.StatusOK {
		return rep, fmt.Errorf("HTTP %d: %.200s", code, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("decoding response: %w", err)
	}
	if !rep.OK || rep.Text != in.want {
		return rep, fmt.Errorf("served tree differs from the in-process parse")
	}
	return rep, nil
}

// probeServer serves every input through an in-process llstar-serve
// handler, configured as the command configures it by default (info
// logging, discarded here), and splits each request into the parse the
// server reports (elapsed_us) and the rest of the handler: body decode,
// admission, pool checkout, Tree.String, encoding and logging.
func (r *run) probeServer(sp []spec, ins []input) ([]metric, error) {
	dir := filepath.Join(r.tmp, "probe-grammars")
	if err := writeGrammars(sp, dir); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		GrammarDir:           dir,
		Preload:              []string{"all"},
		RewriteLeftRecursion: true,
		Debug:                true,
		Logger:               slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Preload(); err != nil {
		return nil, err
	}
	h := srv.Handler()
	alloc := newMeter()
	var parseMS, overheadMS []float64
	for rep := 0; rep < r.cfg.probeReps; rep++ {
		for _, in := range ins {
			body, err := requestBody(sp[in.g], in)
			if err != nil {
				return nil, err
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/parse", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			t0, d := alloc.time(func() { h.ServeHTTP(rec, req) })
			rep, err := checkReply(rec.Code, rec.Body.Bytes(), in)
			if err != nil {
				r.fail(fmt.Errorf("server probe %s: %w", sp[in.g].stem, err))
				continue
			}
			el := time.Duration(rep.ElapsedUS) * time.Microsecond
			parent := r.tr.add("server.handle", t0, d, -1, 0, sp[in.g].stem, 0)
			r.tr.add("server.parse", t0.Add((d-el)/2), el, parent, 0, sp[in.g].stem, 0)
			parseMS = append(parseMS, ms(float64(el)))
			overheadMS = append(overheadMS, ms(float64(d-el)))
		}
	}
	return []metric{
		{Name: "server.parse_ms_p50", Value: median(parseMS), Unit: "ms"},
		{Name: "server.overhead_ms_p50", Value: median(overheadMS), Unit: "ms"},
		{Name: "server.alloc_kb_per_req", Value: float64(alloc.alloc) / 1024 / float64(max(alloc.ops, 1)), Unit: "KiB"},
	}, nil
}

// probeStream opens an incremental session over the first input of each
// grammar, times a full reparse of it, then applies seeded one-digit
// edits and records their latency and what each edit reused.
func (r *run) probeStream(sp []spec, gs []*llstar.Grammar, ins []input) []metric {
	tr := r.tr
	rng := r.rng(purposeStreamProbe)
	seen := make([]bool, len(sp))
	var edits, reused, relexed, memoReused, memoDropped int
	var editP50, ratios []float64
	for _, in := range ins {
		if seen[in.g] {
			continue
		}
		seen[in.g] = true
		s, g := sp[in.g], gs[in.g]
		err := func() error {
			var sess *llstar.Session
			var err error
			tr.call("stream.open", 0, s.stem, func() { sess, err = openSession(g, s.w.Start, in.text) })
			if err != nil {
				return err
			}
			p := g.NewParser(llstar.WithTree())
			for rep := 0; rep < r.cfg.probeReps; rep++ {
				tr.call("stream.full", int64(rep), s.stem, func() { _, err = p.Parse(s.w.Start, in.text) })
				if err != nil {
					return err
				}
			}
			ed := newDigitEditor(in.text)
			if len(ed.digits) == 0 {
				return nil
			}
			var lat []float64
			for k := 0; k < r.cfg.streamEdits; k++ {
				e := ed.next(rng)
				d := tr.call("stream.edit", int64(k), s.stem, func() { err = sess.Edit(e) })
				if err != nil {
					return err
				}
				st := sess.Stats()
				reused += st.ReusedTokens
				relexed += st.RelexedTokens
				memoReused += st.ReusedMemo
				memoDropped += st.DroppedMemo
				edits++
				lat = append(lat, float64(d))
			}
			editP50 = append(editP50, ms(median(lat)))
			ratios = append(ratios, median(lat)/median(tr.durationsOf("stream.full", s.stem)))
			return sameAsFresh(p, s.w.Start, sess, ed.text)
		}()
		if err != nil {
			r.fail(fmt.Errorf("stream probe %s: %w", s.stem, err))
		}
	}
	n := float64(max(edits, 1))
	return []metric{
		{Name: "stream.open_ms", Value: ms(tr.medianSum("stream.open", "")), Unit: "ms"},
		{Name: "stream.edit_ms_p50", Value: geomean(editP50), Unit: "ms"},
		{Name: "stream.edit_over_full", Value: geomean(ratios), Unit: "ratio"},
		{Name: "stream.token_reuse_ratio", Value: float64(reused) / float64(max(reused+relexed, 1)), Unit: "ratio"},
		{Name: "stream.relexed_tokens_mean", Value: float64(relexed) / n, Unit: "count"},
		{Name: "stream.memo_reused_mean", Value: float64(memoReused) / n, Unit: "count"},
		{Name: "stream.memo_dropped_mean", Value: float64(memoDropped) / n, Unit: "count"},
	}
}
