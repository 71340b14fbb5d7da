package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"llstar"
	"llstar/internal/token"
)

// This file serves POST /v1/parse?stream=events: the request body is
// the raw input text (not JSON), fed to a streaming parse session in
// chunks as it arrives, and the response is NDJSON — one SAX event per
// line, terminated by a summary line. Memory stays bounded by grammar
// depth + lookahead window regardless of body size, so the endpoint
// rides the wider MaxStreamBytes cap instead of MaxBodyBytes.

// streamReadChunk is the body read granularity of the streaming
// endpoint.
const streamReadChunk = 64 << 10

// streamEventJSON is one NDJSON event line.
type streamEventJSON struct {
	Kind  string     `json:"kind"`
	Rule  string     `json:"rule,omitempty"`
	Token string     `json:"token,omitempty"`
	Type  int        `json:"type,omitempty"`
	Name  string     `json:"name,omitempty"`
	Line  int        `json:"line,omitempty"`
	Col   int        `json:"col,omitempty"`
	Error *errorJSON `json:"error,omitempty"`
}

// streamEndJSON is the terminal NDJSON line: the session verdict and
// its statistics.
type streamEndJSON struct {
	Kind       string     `json:"kind"` // always "end"
	OK         bool       `json:"ok"`
	Grammar    string     `json:"grammar"`
	Rule       string     `json:"rule"`
	Tokens     int        `json:"tokens"`
	Events     int64      `json:"events"`
	Errors     int64      `json:"errors,omitempty"`
	PeakWindow int        `json:"peak_window"`
	MaxK       int        `json:"max_k,omitempty"`
	Bytes      int64      `json:"bytes"`
	ElapsedUS  int64      `json:"elapsed_us"`
	Error      *errorJSON `json:"error,omitempty"`
}

// ndjsonWriter serializes events one per line and remembers whether
// anything reached the wire (once it has, errors can only be reported
// in-band on the end line — the status is already 200).
type ndjsonWriter struct {
	enc    *json.Encoder
	flush  http.Flusher
	wrote  bool
	failed bool // client gone; stop producing
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	nw := &ndjsonWriter{enc: json.NewEncoder(w)}
	if f, ok := w.(http.Flusher); ok {
		nw.flush = f
	} else if sw, ok := w.(*statusWriter); ok {
		if f, ok := sw.ResponseWriter.(http.Flusher); ok {
			nw.flush = f
		}
	}
	return nw
}

func (nw *ndjsonWriter) emit(v any) {
	if nw.failed {
		return
	}
	if err := nw.enc.Encode(v); err != nil {
		nw.failed = true
		return
	}
	nw.wrote = true
}

// Flush pushes buffered lines to the client (after each fed chunk, so
// a slow producer still sees events promptly).
func (nw *ndjsonWriter) Flush() {
	if nw.flush != nil && nw.wrote && !nw.failed {
		nw.flush.Flush()
	}
}

// handleParseStream serves POST /v1/parse?stream=events. Query
// parameters select the parse (grammar, rule, recover=1); the body is
// the raw input. Events stream as they are committed; the final line
// carries kind "end" with the verdict. Errors detected before the
// first event (unknown grammar, oversize body on a short input) still
// answer proper HTTP statuses.
func (s *Server) handleParseStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	q := r.URL.Query()
	name := q.Get("grammar")
	if name == "" {
		s.countError("parse_stream", "request")
		writeError(w, http.StatusBadRequest, `missing "grammar" query parameter`)
		return
	}
	e, err := s.reg.Get(name)
	if err != nil {
		s.grammarError(w, "parse_stream", err)
		return
	}
	if sw, ok := w.(*statusWriter); ok {
		sw.grammar = e.Name
	}

	// Events are flushed while the body is still being read. An HTTP/1.x
	// server otherwise closes the unread body at the first flush, and
	// the next read fails with "invalid Read on closed Body". HTTP/2 is
	// always full duplex and reports ErrNotSupported, which is fine.
	_ = http.NewResponseController(w).EnableFullDuplex()
	fr := s.newFlightRun(w, "parse_stream", e.Name)
	nw := newNDJSONWriter(w)
	opts := []llstar.SessionOption{
		llstar.WithEvents(func(ev llstar.StreamEvent) { nw.emit(toStreamEventJSON(e.G, ev)) }),
		llstar.WithSessionMetrics(s.mx),
	}
	if rule := q.Get("rule"); rule != "" {
		opts = append(opts, llstar.WithStartRule(rule))
	}
	if v := q.Get("recover"); v == "1" || v == "true" {
		opts = append(opts, llstar.WithSessionRecovery())
	}
	if s.cfg.Tracer != nil {
		opts = append(opts, llstar.WithSessionTracer(s.cfg.Tracer))
	}
	if fr != nil {
		opts = append(opts, llstar.WithSessionFlightRecorder(fr.rec))
	}
	start := time.Now()
	sess, err := e.G.NewSession(opts...)
	if err != nil {
		s.countError("parse_stream", "request")
		writeError(w, http.StatusBadRequest, err.Error())
		if fr != nil && fr.pooled {
			s.fpool.Put(fr.rec)
		}
		return
	}
	if fr != nil {
		fr.rule = sess.Rule()
	}

	// Pump the body. A terminal parse error stops the pump (the
	// remaining body is irrelevant); a body-cap overrun either answers
	// 413 (nothing streamed yet) or is reported on the end line.
	var perr, rerr error
	buf := make([]byte, streamReadChunk)
	for perr == nil {
		n, err := r.Body.Read(buf)
		if n > 0 {
			perr = sess.Feed(buf[:n])
			nw.Flush()
		}
		if err != nil {
			if err != io.EOF {
				rerr = err
			}
			break
		}
	}
	if perr == nil && rerr == nil {
		perr = sess.Finish()
	} else {
		sess.Close()
	}
	st := sess.Stats()
	if fr != nil {
		fr.stats.Tokens = int64(st.Tokens)
		if st.MaxK > fr.stats.MaxLookahead {
			fr.stats.MaxLookahead = st.MaxK
		}
	}

	var tooBig *http.MaxBytesError
	if errors.As(rerr, &tooBig) && !nw.wrote {
		s.countError("parse_stream", "toolarge")
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		s.finishFlight(r.Context(), fr, parseResponse{internalErr: false}, "")
		return
	}

	end := streamEndJSON{
		Kind: "end", OK: perr == nil && rerr == nil,
		Grammar: e.Name, Rule: sess.Rule(),
		Tokens: st.Tokens, Events: st.Events, Errors: st.Errors,
		PeakWindow: st.PeakWindow, MaxK: st.MaxK,
		Bytes:     st.BytesFed,
		ElapsedUS: time.Since(start).Microseconds(),
	}
	switch {
	case perr != nil:
		s.countError("parse_stream", "syntax")
		ej := toErrorJSON(e.G, perr)
		end.Error = &ej
	case rerr != nil:
		s.countError("parse_stream", "body")
		end.Error = &errorJSON{Msg: rerr.Error()}
	}
	nw.emit(end)
	nw.Flush()
	s.finishFlight(r.Context(), fr, parseResponse{OK: end.OK}, "")
}

// toStreamEventJSON renders one SAX event, naming tokens through the
// grammar vocabulary like the batch tree JSON does.
func toStreamEventJSON(g *llstar.Grammar, ev llstar.StreamEvent) streamEventJSON {
	out := streamEventJSON{Kind: ev.Kind.String()}
	switch ev.Kind {
	case llstar.StreamRuleEnter, llstar.StreamRuleExit:
		out.Rule = ev.Rule
	case llstar.StreamToken:
		out.Token = ev.Token.Text
		out.Type = int(ev.Token.Type)
		out.Name = g.TokenName(int(ev.Token.Type))
		out.Line = ev.Token.Pos.Line
		out.Col = ev.Token.Pos.Col
	case llstar.StreamSyntaxError:
		text := ev.Err.Offending.Text
		if ev.Err.Offending.Type == token.EOF {
			text = "<EOF>"
		}
		out.Error = &errorJSON{
			Msg:       ev.Err.Msg,
			Rule:      ev.Err.Rule,
			Line:      ev.Err.Offending.Pos.Line,
			Col:       ev.Err.Offending.Pos.Col,
			Token:     text,
			TokenType: int(ev.Err.Offending.Type),
			TokenName: g.TokenName(int(ev.Err.Offending.Type)),
		}
	}
	return out
}
