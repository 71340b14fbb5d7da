package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"llstar"
	"llstar/internal/obs/flight"
	"llstar/internal/token"
)

// This file defines the wire schemas of the parse API and the helpers
// that render llstar values (trees, stats, syntax errors) into them.
// docs/server.md documents every field.

// parseRequest is the body of POST /v1/parse and of each batch item.
type parseRequest struct {
	// Grammar names a file stem in the grammar directory.
	Grammar string `json:"grammar"`
	// Rule is the start rule; empty means the grammar's first rule.
	Rule string `json:"rule,omitempty"`
	// Input is the text to parse.
	Input string `json:"input"`
	// Tree requests the structured tree in addition to the s-expression
	// text (trees can dwarf the input; off by default).
	Tree bool `json:"tree,omitempty"`
	// Stats requests the runtime decision profile summary.
	Stats bool `json:"stats,omitempty"`
	// Recover enables error recovery: the parse continues past syntax
	// errors and reports them all in `recovered`.
	Recover bool `json:"recover,omitempty"`
}

// parseResponse is the result of one parse.
type parseResponse struct {
	OK      bool   `json:"ok"`
	Grammar string `json:"grammar"`
	Rule    string `json:"rule"`
	// Text is the parse tree as an s-expression.
	Text string `json:"text,omitempty"`
	// Tree is the structured parse tree (request.tree only).
	Tree *treeNode `json:"tree,omitempty"`
	// Tokens and Nodes size the result: leaves and total tree nodes.
	Tokens    int   `json:"tokens,omitempty"`
	Nodes     int   `json:"nodes,omitempty"`
	ElapsedUS int64 `json:"elapsed_us"`
	// Stats is the runtime profile summary (request.stats only).
	Stats *statsJSON `json:"stats,omitempty"`
	// Error is the failure for ok == false.
	Error *errorJSON `json:"error,omitempty"`
	// Recovered lists syntax errors survived in recovery mode.
	Recovered []errorJSON `json:"recovered,omitempty"`

	// internalErr marks a response produced by a recovered parse panic:
	// the handler answers 500 (not 422) and the flight trigger records
	// the request as a server error. Never serialized.
	internalErr bool
}

// errorJSON locates and names one error. For syntax errors the
// offending token is named through the grammar's vocabulary
// (token_name), not just its raw type integer.
type errorJSON struct {
	Msg       string `json:"msg"`
	Rule      string `json:"rule,omitempty"`
	Line      int    `json:"line,omitempty"`
	Col       int    `json:"col,omitempty"`
	Token     string `json:"token,omitempty"`
	TokenType int    `json:"token_type,omitempty"`
	TokenName string `json:"token_name,omitempty"`
	// RequestID correlates error responses with server logs and trace
	// spans; it echoes the request's X-Request-Id (top-level errors only).
	RequestID string `json:"request_id,omitempty"`
}

// statsJSON summarizes runtime.ParseStats for one parse.
type statsJSON struct {
	PredictEvents   int   `json:"predict_events"`
	MaxLookahead    int   `json:"max_lookahead"`
	BacktrackEvents int   `json:"backtrack_events"`
	BacktrackTokens int64 `json:"backtrack_tokens"`
	MemoHits        int   `json:"memo_hits"`
	MemoMisses      int   `json:"memo_misses"`
	MemoEntries     int   `json:"memo_entries"`
}

// treeNode is the structured parse-tree shape: rule nodes carry
// children; token leaves carry text, type, name, and position.
type treeNode struct {
	Rule      string      `json:"rule,omitempty"`
	Children  []*treeNode `json:"children,omitempty"`
	Token     string      `json:"token,omitempty"`
	TokenType int         `json:"type,omitempty"`
	TokenName string      `json:"name,omitempty"`
	Line      int         `json:"line,omitempty"`
	Col       int         `json:"col,omitempty"`
}

// toTreeNode converts a parse tree, naming leaf tokens through the
// grammar vocabulary.
func toTreeNode(g *llstar.Grammar, n *llstar.Tree) *treeNode {
	if n == nil {
		return nil
	}
	if n.Token != nil {
		return &treeNode{
			Token:     n.Token.Text,
			TokenType: int(n.Token.Type),
			TokenName: g.TokenName(int(n.Token.Type)),
			Line:      n.Token.Pos.Line,
			Col:       n.Token.Pos.Col,
		}
	}
	out := &treeNode{Rule: n.Rule}
	for _, c := range n.Children {
		out.Children = append(out.Children, toTreeNode(g, c))
	}
	return out
}

// toErrorJSON renders any parse error; syntax errors gain token
// location and vocabulary names.
func toErrorJSON(g *llstar.Grammar, err error) errorJSON {
	var se *llstar.SyntaxError
	if errors.As(err, &se) {
		return syntaxErrorJSON(g, se)
	}
	return errorJSON{Msg: err.Error()}
}

func syntaxErrorJSON(g *llstar.Grammar, se *llstar.SyntaxError) errorJSON {
	text := se.Offending.Text
	if se.Offending.Type == token.EOF {
		text = "<EOF>"
	}
	return errorJSON{
		Msg:       se.Msg,
		Rule:      se.Rule,
		Line:      se.Offending.Pos.Line,
		Col:       se.Offending.Pos.Col,
		Token:     text,
		TokenType: int(se.Offending.Type),
		TokenName: g.TokenName(int(se.Offending.Type)),
	}
}

// summarize totals a parse's runtime profile in one pass over its
// decisions: the flight capture's trigger inputs, which toStatsJSON also
// renders. Call it before the parser returns to its pool (the next
// checkout's parse starts the profile over).
func summarize(st *llstar.Stats) flight.Stats {
	out := flight.Stats{MemoHits: st.MemoHits, MemoMisses: st.MemoMisses}
	for i := range st.Decisions {
		d := &st.Decisions[i]
		out.PredictEvents += d.Events
		out.MaxLookahead = max(out.MaxLookahead, d.MaxK)
		out.BacktrackEvents += d.BacktrackEvents
		out.BacktrackTokens += d.SumBacktrackK
	}
	return out
}

// toStatsJSON renders a parse's summary and its memo-table size.
func toStatsJSON(sum flight.Stats, memoEntries int) *statsJSON {
	return &statsJSON{
		PredictEvents:   sum.PredictEvents,
		MaxLookahead:    sum.MaxLookahead,
		BacktrackEvents: sum.BacktrackEvents,
		BacktrackTokens: sum.BacktrackTokens,
		MemoHits:        sum.MemoHits,
		MemoMisses:      sum.MemoMisses,
		MemoEntries:     memoEntries,
	}
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error errorJSON `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is the only failure mode left
}

// writeError writes a JSON error body with the given status. The
// request-id middleware stamps X-Request-Id on the response header
// before any handler runs, so the id is read back from there.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{
		Error: errorJSON{Msg: msg, RequestID: w.Header().Get(requestIDHeader)},
	})
}

// decodeJSON decodes a request body, mapping oversized bodies to a
// distinct error so the handler can answer 413.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("%w: body exceeds %d bytes", errBodyTooLarge, tooBig.Limit)
		}
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

var errBodyTooLarge = errors.New("request body too large")
