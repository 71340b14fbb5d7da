package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"llstar"
	"llstar/internal/obs"
	"llstar/internal/obs/flight"
)

// flightRun carries one request's flight recording: the pooled event
// ring plus the correlation identity a capture needs if the anomaly
// trigger fires. It lives on the parse goroutine only (the ring is
// single-writer); /v1/batch gives each item its own flightRun — and
// its own span id — so the items record independently on their
// workers and a by-trace lookup can tell them apart.
type flightRun struct {
	rec      *flight.Recorder
	endpoint string
	grammar  string
	rule     string
	session  string
	reqID    string
	traceID  string
	// span is this run's own child span id within the trace (each
	// batch item mints a distinct one).
	span  string
	start time.Time
	stats flight.Stats
	// pooled marks a recorder checked out of fpool: returned on finish.
	// Session-owned recorders (which outlive the request) are not.
	pooled bool
}

// newFlightRun checks a recorder out of the pool for one request, or
// returns nil when the flight recorder is disabled.
func (s *Server) newFlightRun(w http.ResponseWriter, endpoint, grammar string) *flightRun {
	if s.flight == nil {
		return nil
	}
	// The middleware already read the ids; reuse them rather than call
	// Header, which writes response state and so races between the
	// goroutines of one /v1/batch request.
	sw, ok := w.(*statusWriter)
	if !ok {
		sw = &statusWriter{reqID: w.Header().Get(requestIDHeader), traceID: traceIDFrom(w.Header().Get(traceparentHeader))}
	}
	rec := s.fpool.Get().(*flight.Recorder)
	rec.Reset()
	return &flightRun{
		rec:      rec,
		endpoint: endpoint,
		grammar:  grammar,
		reqID:    sw.reqID,
		traceID:  sw.traceID,
		span:     randHex(16),
		start:    time.Now(),
		pooled:   true,
	}
}

// finishFlight evaluates the anomaly trigger for one completed parse
// and persists a capture when it fires. It runs on the parse goroutine
// before the response is handed back — and after the handler gave up,
// for a 504-abandoned parse — so it is the single finalizer: the ring
// is quiescent and ctx's deadline state tells us whether the client
// ever saw the result. forced names a trigger that already fired
// ("panic"); when it is set the recorder is not returned to the pool.
func (s *Server) finishFlight(ctx context.Context, fr *flightRun, resp parseResponse, forced string) {
	if fr == nil {
		return
	}
	dur := time.Since(fr.start)
	status := http.StatusOK
	switch {
	case resp.internalErr:
		status = http.StatusInternalServerError
	case !resp.OK:
		status = http.StatusUnprocessableEntity
	}
	if ctx.Err() != nil {
		status = http.StatusGatewayTimeout
	}
	trigger := forced
	if trigger == "" {
		trigger = s.ftrig.Eval(status, dur, fr.stats)
	}
	if trigger == "" {
		if fr.pooled {
			s.fpool.Put(fr.rec)
		}
		return
	}
	events, dropped := fr.rec.Snapshot()
	c := &flight.Capture{
		RequestID: fr.reqID,
		TraceID:   fr.traceID,
		SpanID:    fr.span,
		Replica:   s.replicaAddr(),
		Endpoint:  fr.endpoint,
		Grammar:   fr.grammar,
		Rule:      fr.rule,
		SessionID: fr.session,
		Status:    status,
		Trigger:   trigger,
		Time:      time.Now(),
		DurUS:     dur.Microseconds(),
		Stats:     fr.stats,
		Dropped:   dropped,
		Events:    events,
	}
	id := s.flight.Add(c)
	s.log.LogAttrs(context.Background(), slog.LevelWarn, "flight_capture",
		slog.String("capture_id", id),
		slog.String("trigger", trigger),
		slog.String("endpoint", fr.endpoint),
		slog.Int("status", status),
		slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
		slog.String("request_id", fr.reqID),
		slog.String("trace_id", fr.traceID),
		slog.String("grammar", fr.grammar),
		slog.String("session_id", fr.session),
	)
	if forced == "" && fr.pooled {
		s.fpool.Put(fr.rec)
	}
}

// handleParse serves POST /v1/parse: one grammar, one input, one JSON
// result. Successful parses answer 200; syntax errors answer 422 with
// the error located and its offending token named; a parse exceeding
// the request timeout answers 504 (the abandoned parse finishes in the
// background and its parser returns to the pool).
func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req parseRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, "parse", err)
		return
	}
	if req.Grammar == "" {
		s.countError("parse", "request")
		writeError(w, http.StatusBadRequest, `missing "grammar"`)
		return
	}
	e, err := s.reg.Get(req.Grammar)
	if err != nil {
		s.grammarError(w, "parse", err)
		return
	}
	if sw, ok := w.(*statusWriter); ok {
		sw.grammar = e.Name
	}
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	fr := s.newFlightRun(w, "parse", e.Name)
	resp, ok := s.parseWithDeadline(ctx, e, req, fr)
	if !ok {
		s.countError("parse", "timeout")
		writeError(w, http.StatusGatewayTimeout, "parse deadline exceeded")
		return
	}
	if resp.internalErr {
		writeError(w, http.StatusInternalServerError, resp.Error.Msg)
		return
	}
	code := http.StatusOK
	if !resp.OK {
		code = http.StatusUnprocessableEntity
		s.countError("parse", "syntax")
	}
	writeJSON(w, code, resp)
}

// batchRequest is the body of POST /v1/batch: either plain inputs
// sharing one grammar/rule, explicit per-item requests, or both.
type batchRequest struct {
	Grammar string         `json:"grammar,omitempty"`
	Rule    string         `json:"rule,omitempty"`
	Inputs  []string       `json:"inputs,omitempty"`
	Items   []parseRequest `json:"items,omitempty"`
	Tree    bool           `json:"tree,omitempty"`
	Stats   bool           `json:"stats,omitempty"`
}

// batchResponse reports every item in request order.
type batchResponse struct {
	Count     int             `json:"count"`
	Succeeded int             `json:"succeeded"`
	Failed    int             `json:"failed"`
	ElapsedUS int64           `json:"elapsed_us"`
	Results   []parseResponse `json:"results"`
}

// handleBatch serves POST /v1/batch: inputs fan out across a bounded
// worker pool, each parse drawing from its grammar's ParserPool. The
// response is 200 with per-item outcomes; only malformed requests and
// whole-batch problems (unknown grammar, oversize) fail the request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req batchRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, "batch", err)
		return
	}
	items := make([]parseRequest, 0, len(req.Inputs)+len(req.Items))
	for _, in := range req.Inputs {
		items = append(items, parseRequest{
			Grammar: req.Grammar, Rule: req.Rule, Input: in,
			Tree: req.Tree, Stats: req.Stats,
		})
	}
	for _, it := range req.Items {
		if it.Grammar == "" {
			it.Grammar = req.Grammar
		}
		if it.Rule == "" {
			it.Rule = req.Rule
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		s.countError("batch", "request")
		writeError(w, http.StatusBadRequest, `empty batch: provide "inputs" or "items"`)
		return
	}
	if len(items) > s.cfg.MaxBatchItems {
		s.countError("batch", "request")
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch too large: %d items (max %d)", len(items), s.cfg.MaxBatchItems))
		return
	}
	if sw, ok := w.(*statusWriter); ok {
		sw.grammar = req.Grammar // shared grammar; empty for mixed batches
	}

	// Resolve every distinct grammar up front so an unknown grammar
	// fails the batch before any work runs.
	entries := map[string]*Entry{}
	for _, it := range items {
		if it.Grammar == "" {
			s.countError("batch", "request")
			writeError(w, http.StatusBadRequest, `missing "grammar"`)
			return
		}
		if _, ok := entries[it.Grammar]; ok {
			continue
		}
		e, err := s.reg.Get(it.Grammar)
		if err != nil {
			s.grammarError(w, "batch", err)
			return
		}
		entries[it.Grammar] = e
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	start := time.Now()
	results := make([]parseResponse, len(items))
	workers := s.cfg.BatchWorkers
	if workers > len(items) {
		workers = len(items)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				it := items[i]
				if ctx.Err() != nil {
					results[i] = parseResponse{
						OK: false, Grammar: it.Grammar, Rule: it.Rule,
						Error: &errorJSON{Msg: "batch deadline exceeded"},
					}
					continue
				}
				// Each item gets its own flight run — own event ring,
				// own child span id under the request's trace — so an
				// anomalous item captures alone and a by-trace lookup
				// distinguishes the items.
				fr := s.newFlightRun(w, "batch", it.Grammar)
				var it0 time.Duration
				if s.tr != nil {
					it0 = s.tr.Now()
				}
				results[i] = s.doParse(entries[it.Grammar], it, fr)
				if s.tr != nil {
					span := ""
					if fr != nil {
						span = fr.span
					}
					rid, tid := "", ""
					if sw, ok := w.(*statusWriter); ok {
						rid, tid = sw.reqID, sw.traceID
					}
					s.tr.Emit(obs.Event{
						Name: "server.batch.item", Cat: obs.PhaseServer, Ph: obs.PhSpan,
						TS: it0, Dur: s.tr.Now() - it0, Decision: -1,
						OK: results[i].OK, N: int64(i), Rule: it.Grammar,
						Detail: rid + " " + tid + " " + span,
					})
				}
				s.finishFlight(ctx, fr, results[i], "")
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()

	resp := batchResponse{
		Count:     len(results),
		ElapsedUS: time.Since(start).Microseconds(),
		Results:   results,
	}
	rid := w.Header().Get(requestIDHeader)
	for i := range results {
		if results[i].OK {
			resp.Succeeded++
			continue
		}
		resp.Failed++
		s.countError("batch", "syntax")
		// Stamp the batch's request id on every failed item, so a
		// client that fans results out to downstream consumers keeps
		// each error correlatable with the server's logs and spans.
		if results[i].Error != nil {
			results[i].Error.RequestID = rid
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleGrammars serves GET /v1/grammars: every grammar the directory
// offers, with fingerprints and analysis digests for the loaded ones.
func (s *Server) handleGrammars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	list, err := s.reg.List()
	if err != nil {
		s.countError("grammars", "list")
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if c := s.cluster(); c != nil {
		for i := range list {
			list[i].Owner, list[i].Local = c.GrammarOwner(list[i].Name)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Grammars []Listing `json:"grammars"`
	}{list})
}

// parseWithDeadline runs one parse, giving up at ctx's deadline. The
// abandoned goroutine completes the parse, returns its parser to the
// pool, and finalizes the flight recording (so a 504 still yields a
// capture); only the response is dropped. A panic on the parse
// goroutine — which the recoverPanics middleware cannot see — is
// recovered here into an internal-error response plus a "panic"
// flight capture.
func (s *Server) parseWithDeadline(ctx context.Context, e *Entry, req parseRequest, fr *flightRun) (parseResponse, bool) {
	done := make(chan parseResponse, 1)
	go func() {
		var resp parseResponse
		defer func() {
			if v := recover(); v != nil {
				s.countError("parse", "panic")
				rid, tid := "", ""
				if fr != nil {
					rid, tid = fr.reqID, fr.traceID
				}
				s.log.LogAttrs(context.Background(), slog.LevelError, "panic",
					slog.String("endpoint", "parse"),
					slog.String("grammar", e.Name),
					slog.String("request_id", rid),
					slog.String("trace_id", tid),
					slog.Any("panic", v),
					slog.String("stack", string(debugStack())),
				)
				resp = parseResponse{
					Grammar: e.Name, Rule: req.Rule, internalErr: true,
					Error: &errorJSON{Msg: fmt.Sprintf("internal error: %v", v)},
				}
				s.finishFlight(ctx, fr, resp, "panic")
			}
			done <- resp
		}()
		resp = s.doParse(e, req, fr)
		s.finishFlight(ctx, fr, resp, "")
	}()
	select {
	case resp := <-done:
		return resp, true
	case <-ctx.Done():
		return parseResponse{}, false
	}
}

// doParse is the parse core shared by /v1/parse and /v1/batch: check a
// parser out of the entry's pool (or build a recovery parser), parse,
// and render the response. When fr is non-nil the flight recorder is
// attached for exactly the lifetime of the parse — pooled parsers get
// it via SetFlightRecorder (detached before Put so the next checkout
// is back to a nil-check hot path), recovery parsers via construction.
func (s *Server) doParse(e *Entry, req parseRequest, fr *flightRun) parseResponse {
	rule := req.Rule
	if rule == "" {
		if start := e.G.AnalysisResult().Grammar.Start(); start != nil {
			rule = start.Name
		}
	}
	if fr != nil {
		fr.rule = rule
	}
	resp := parseResponse{Grammar: e.Name, Rule: rule}
	start := time.Now()

	var p *llstar.Parser
	if req.Recover {
		// Recovery changes parser behavior, so it bypasses the pool —
		// but still feeds the shared coverage profile (resyncs are some
		// of the most interesting events it records).
		popts := []llstar.ParserOption{llstar.WithTree(), llstar.WithStats(), llstar.WithRecovery(0)}
		if e.Cov != nil {
			popts = append(popts, llstar.WithCoverage(e.Cov))
		}
		if fr != nil {
			popts = append(popts, llstar.WithFlightRecorder(fr.rec))
		}
		p = e.G.NewParser(popts...)
	} else {
		p = e.Pool.Get()
		if fr != nil {
			p.SetFlightRecorder(fr.rec)
		}
	}
	tree, perr := p.Parse(req.Rule, req.Input)
	if fr != nil || req.Stats {
		st := p.Stats()
		sum := summarize(st)
		if fr != nil {
			fr.stats = sum
		}
		if req.Stats {
			resp.Stats = toStatsJSON(sum, st.MemoEntries)
		}
	}
	for _, se := range p.Errors() {
		resp.Recovered = append(resp.Recovered, syntaxErrorJSON(e.G, se))
	}
	if !req.Recover {
		if fr != nil {
			p.SetFlightRecorder(nil) // detach before Put
		}
		e.Pool.Put(p)
	}
	resp.ElapsedUS = time.Since(start).Microseconds()

	if perr != nil {
		ej := toErrorJSON(e.G, perr)
		resp.Error = &ej
		return resp
	}
	resp.OK = true
	resp.Text = tree.String()
	tree.Walk(func(n *llstar.Tree) bool {
		resp.Nodes++
		if n.Token != nil {
			resp.Tokens++
		}
		return true
	})
	if fr != nil {
		fr.stats.Tokens = int64(resp.Tokens)
	}
	if req.Tree {
		resp.Tree = toTreeNode(e.G, tree)
	}
	return resp
}

// grammarError maps registry errors to HTTP statuses: bad name 400,
// unknown grammar 404, anything else (unreadable file, analysis
// failure) 500.
func (s *Server) grammarError(w http.ResponseWriter, endpoint string, err error) {
	switch {
	case errors.Is(err, ErrBadName):
		s.countError(endpoint, "request")
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrUnknownGrammar):
		s.countError(endpoint, "unknown_grammar")
		writeError(w, http.StatusNotFound, err.Error())
	default:
		s.countError(endpoint, "grammar_load")
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// badRequest maps body-decoding failures: oversize 413, otherwise 400.
func (s *Server) badRequest(w http.ResponseWriter, endpoint string, err error) {
	if errors.Is(err, errBodyTooLarge) {
		s.countError(endpoint, "toolarge")
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	s.countError(endpoint, "request")
	writeError(w, http.StatusBadRequest, err.Error())
}
