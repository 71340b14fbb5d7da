package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const exprGrammar = `
grammar Expr;
s : ID '=' e ';' ;
e : INT | ID | '(' e ')' ;
ID : ('a'..'z')+ ;
INT : ('0'..'9')+ ;
WS : (' '|'\t'|'\r'|'\n')+ { skip(); } ;
`

const jsonGrammar = `
grammar JSON;
value : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
obj : '{' (pair (',' pair)*)? '}' ;
pair : STRING ':' value ;
arr : '[' (value (',' value)*)? ']' ;
STRING : '"' (~('"'|'\\') | '\\' .)* '"' ;
NUMBER : ('-')? ('0'..'9')+ ;
WS : (' '|'\t'|'\r'|'\n')+ { skip(); } ;
`

const declGrammar = `
grammar Decl;
s : type ID ';' ;
type : ('unsigned')* ('int' | ID) ;
ID : ('a'..'z')+ ;
WS : (' ')+ { skip(); } ;
`

// newTestServer materializes grammars into a temp dir and builds a
// ready server over them.
func newTestServer(t *testing.T, cfg Config, grammars map[string]string) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range grammars {
		if err := os.WriteFile(filepath.Join(dir, name+".g"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.GrammarDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestReadyzFlipsAfterPreload(t *testing.T) {
	s, _ := newTestServer(t, Config{Preload: []string{"expr"}}, map[string]string{"expr": exprGrammar})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != 200 {
		t.Errorf("healthz before preload = %d", code)
	}
	if code := get("/readyz"); code != 503 {
		t.Errorf("readyz before preload = %d, want 503", code)
	}
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	if code := get("/readyz"); code != 200 {
		t.Errorf("readyz after preload = %d, want 200", code)
	}
	// Preload actually loaded: the listing shows a digest without any
	// parse having run.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/parse", parseRequest{Grammar: "expr", Input: "x = 1 ;"})
	if resp.StatusCode != 200 {
		t.Fatalf("parse after preload: %d %s", resp.StatusCode, body)
	}
	s.StartDrain()
	if code := get("/readyz"); code != 503 {
		t.Errorf("readyz draining = %d, want 503", code)
	}
}

func TestParseEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{}, map[string]string{"expr": exprGrammar, "json": jsonGrammar})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	// A valid parse returns the s-expression and sizes.
	resp, body := postJSON(t, c, ts.URL+"/v1/parse",
		parseRequest{Grammar: "expr", Input: "x = ( y ) ;", Stats: true, Tree: true})
	if resp.StatusCode != 200 {
		t.Fatalf("parse: %d %s", resp.StatusCode, body)
	}
	var pr parseResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.OK || !strings.HasPrefix(pr.Text, "(s x = (e ( (e y) ) ) ;") && !strings.Contains(pr.Text, "(s") {
		t.Errorf("parse response: %+v", pr)
	}
	if pr.Rule != "s" || pr.Tokens == 0 || pr.Nodes == 0 {
		t.Errorf("sizes/rule: %+v", pr)
	}
	if pr.Stats == nil || pr.Stats.PredictEvents == 0 {
		t.Errorf("stats missing: %+v", pr.Stats)
	}
	if pr.Tree == nil || len(pr.Tree.Children) == 0 || pr.Tree.Rule != "s" {
		t.Fatalf("tree missing: %+v", pr.Tree)
	}
	if leaf := pr.Tree.Children[0]; leaf.Token != "x" || leaf.TokenName != "ID" || leaf.Line != 1 {
		t.Errorf("leaf: %+v", leaf)
	}

	// A syntax error answers 422 and names the offending token.
	resp, body = postJSON(t, c, ts.URL+"/v1/parse", parseRequest{Grammar: "expr", Input: "x = = ;"})
	if resp.StatusCode != 422 {
		t.Fatalf("syntax error status: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.OK || pr.Error == nil {
		t.Fatalf("error body: %s", body)
	}
	if pr.Error.TokenName != "'='" || pr.Error.Token != "=" || pr.Error.Line != 1 {
		t.Errorf("offending token not named: %+v", pr.Error)
	}

	// Recovery mode reports every survived error.
	resp, body = postJSON(t, c, ts.URL+"/v1/parse",
		parseRequest{Grammar: "expr", Input: "x = ) ;", Recover: true})
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Recovered) == 0 {
		t.Errorf("recovery reported nothing: %d %s", resp.StatusCode, body)
	}

	// Error mapping: unknown grammar 404, invalid name 400, bad JSON
	// 400, wrong method 405.
	if resp, _ := postJSON(t, c, ts.URL+"/v1/parse", parseRequest{Grammar: "nosuch", Input: "x"}); resp.StatusCode != 404 {
		t.Errorf("unknown grammar: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, c, ts.URL+"/v1/parse", parseRequest{Grammar: "../etc/passwd", Input: "x"}); resp.StatusCode != 400 {
		t.Errorf("bad name: %d", resp.StatusCode)
	}
	if resp, err := c.Post(ts.URL+"/v1/parse", "application/json", strings.NewReader("{not json")); err == nil {
		if resp.StatusCode != 400 {
			t.Errorf("bad JSON: %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp, err := c.Get(ts.URL + "/v1/parse"); err == nil {
		if resp.StatusCode != 405 {
			t.Errorf("GET parse: %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{BatchWorkers: 4}, map[string]string{"expr": exprGrammar, "json": jsonGrammar})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inputs := make([]string, 20)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("x = %d ;", i)
	}
	// One bad input proves per-item isolation.
	inputs[7] = "x = = ;"
	req := batchRequest{
		Grammar: "expr",
		Inputs:  inputs,
		Items: []parseRequest{
			{Grammar: "json", Input: `{"a": [1, 2]}`},
		},
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 21 || br.Succeeded != 20 || br.Failed != 1 {
		t.Errorf("batch counts: %+v", br)
	}
	if br.Results[7].OK || br.Results[7].Error == nil {
		t.Errorf("bad item not isolated: %+v", br.Results[7])
	}
	if last := br.Results[20]; !last.OK || last.Grammar != "json" {
		t.Errorf("mixed-grammar item: %+v", last)
	}

	// Empty batches and oversized batches are rejected.
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", batchRequest{Grammar: "expr"}); resp.StatusCode != 400 {
		t.Errorf("empty batch: %d", resp.StatusCode)
	}
	big := batchRequest{Grammar: "expr", Inputs: make([]string, 1000)}
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", big); resp.StatusCode != 400 {
		t.Errorf("oversized batch: %d", resp.StatusCode)
	}
}

func TestGrammarsListing(t *testing.T) {
	s, _ := newTestServer(t, Config{Preload: []string{"expr"}},
		map[string]string{"expr": exprGrammar, "json": jsonGrammar})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/grammars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Grammars []Listing `json:"grammars"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Grammars) != 2 {
		t.Fatalf("listing: %s", body)
	}
	byName := map[string]Listing{}
	for _, l := range out.Grammars {
		byName[l.Name] = l
	}
	if l := byName["expr"]; !l.Loaded || l.Digest == "" || l.Fingerprint == "" || l.Decisions == 0 {
		t.Errorf("preloaded grammar listing: %+v", l)
	}
	if l := byName["json"]; l.Loaded || l.Digest != "" {
		t.Errorf("lazy grammar should be unloaded: %+v", l)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{}, map[string]string{"expr": exprGrammar})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/parse", parseRequest{Grammar: "expr", Input: "x = 1 ;"})

	scrape := func() string {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	out := scrape()
	for _, want := range []string{
		`llstar_server_requests_total{endpoint="parse",code="200"} 1`,
		"llstar_server_request_duration_us_count",
		"llstar_server_queue_wait_us_count",
		"llstar_server_inflight 0",
		`llstar_server_grammar_loads_total{result="load"} 1`,
		"llstar_parses_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// /metrics itself is not instrumented, so back-to-back scrapes are
	// byte-identical — the deterministic-exporter guarantee end to end.
	if again := scrape(); again != out {
		t.Error("scrapes not stable")
	}
}

func TestBackpressure429(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1, QueueWait: -1},
		map[string]string{"expr": exprGrammar})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Saturate the single slot directly, then prove requests shed.
	s.slots <- struct{}{}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/parse", parseRequest{Grammar: "expr", Input: "x = 1 ;"})
	if resp.StatusCode != 429 {
		t.Fatalf("saturated: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Msg == "" {
		t.Errorf("429 body: %s", body)
	}
	<-s.slots
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/parse", parseRequest{Grammar: "expr", Input: "x = 1 ;"}); resp.StatusCode != 200 {
		t.Errorf("after release: %d", resp.StatusCode)
	}
	if s.InFlight() != 0 {
		t.Errorf("inflight leak: %d", s.InFlight())
	}
}

// bigJSONInput builds a JSON array big enough that parsing it takes
// real wall time (used by the timeout and drain tests).
func bigJSONInput(n int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('1')
	}
	b.WriteByte(']')
	return b.String()
}

func TestRequestTimeout504(t *testing.T) {
	s, _ := newTestServer(t, Config{RequestTimeout: time.Millisecond, MaxBodyBytes: 16 << 20},
		map[string]string{"json": jsonGrammar})
	if err := s.Preload("json"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/parse",
		parseRequest{Grammar: "json", Input: bigJSONInput(300_000)})
	if resp.StatusCode != 504 {
		t.Fatalf("timeout: %d %s", resp.StatusCode, body[:min(len(body), 200)])
	}
}

func TestBodyTooLarge413(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBodyBytes: 256}, map[string]string{"expr": exprGrammar})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/parse",
		parseRequest{Grammar: "expr", Input: strings.Repeat("x", 4096)})
	if resp.StatusCode != 413 {
		t.Errorf("oversize body: %d", resp.StatusCode)
	}
}

func TestPanicRecovery(t *testing.T) {
	s, _ := newTestServer(t, Config{}, map[string]string{"expr": exprGrammar})
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/parse", nil))
	if rec.Code != 500 {
		t.Fatalf("panic status: %d", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error.Msg, "boom") {
		t.Errorf("panic body: %s", rec.Body.String())
	}
}

// TestGracefulDrain proves the SIGTERM path: with a request in flight,
// StartDrain flips /readyz to 503 and http.Server.Shutdown waits for
// the request to complete successfully before returning. The request
// is held in flight deterministically: its body streams through a pipe
// that stays open until drain and shutdown have begun.
func TestGracefulDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{RequestTimeout: time.Minute}, map[string]string{"json": jsonGrammar})
	if err := s.Preload("json"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	body, bodyW := io.Pipe()
	var status atomic.Int64
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/parse", "application/json", body)
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			return
		}
		defer resp.Body.Close()
		status.Store(int64(resp.StatusCode))
		if resp.StatusCode != 200 {
			msg, _ := io.ReadAll(resp.Body)
			t.Errorf("in-flight request failed during drain: %d %s", resp.StatusCode, msg)
		}
	}()

	// The request holds its in-flight slot while its body is still open.
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	s.StartDrain()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Errorf("readyz while draining: %d", rec.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- hs.Shutdown(ctx) }()
	select {
	case err := <-shut:
		t.Fatalf("shutdown returned with a request in flight: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	if _, err := io.WriteString(bodyW, `{"grammar": "json", "input": "[1, 2, {\"a\": true}]"}`); err != nil {
		t.Fatal(err)
	}
	bodyW.Close()
	if err := <-shut; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	done.Wait()
	if status.Load() != 200 {
		t.Errorf("drained request status: %d", status.Load())
	}
}

// TestStressMixedGrammars is the acceptance stress test: at least 8
// concurrent clients hammering mixed grammars for at least 2 seconds
// with zero non-429 failures, while one writer hot-reloads a grammar
// under load.
func TestStressMixedGrammars(t *testing.T) {
	if testing.Short() {
		t.Skip("2s wall-clock stress test")
	}
	s, dir := newTestServer(t, Config{MaxInFlight: 128},
		map[string]string{"expr": exprGrammar, "json": jsonGrammar, "decl": declGrammar})
	if err := s.Preload("all"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	requests := map[string]parseRequest{
		"expr": {Grammar: "expr", Input: "x = ( ( y ) ) ;", Stats: true},
		"json": {Grammar: "json", Input: `{"k": [1, {"n": "v"}, true], "m": null}`, Tree: true},
		"decl": {Grammar: "decl", Input: "unsigned unsigned int x ;"},
	}
	names := []string{"expr", "json", "decl"}

	const clients = 8
	const duration = 2100 * time.Millisecond
	stop := time.Now().Add(duration)
	var total, shed atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan string, clients)
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; time.Now().Before(stop); i++ {
				name := names[(c+i)%len(names)]
				data, _ := json.Marshal(requests[name])
				resp, err := client.Post(ts.URL+"/v1/parse", "application/json", bytes.NewReader(data))
				if err != nil {
					select {
					case errc <- fmt.Sprintf("client %d: %v", c, err):
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				total.Add(1)
				switch resp.StatusCode {
				case 200:
				case 429:
					shed.Add(1)
				default:
					select {
					case errc <- fmt.Sprintf("client %d: %s -> %d", c, name, resp.StatusCode):
					default:
					}
					return
				}
			}
		}(c)
	}

	// Hot-reload writer: flips one grammar's source under load; every
	// in-flight and subsequent request must still succeed.
	reloadStop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		flip := false
		for {
			select {
			case <-reloadStop:
				return
			case <-time.After(150 * time.Millisecond):
			}
			src := declGrammar
			if flip {
				// A trailing comment changes the source text (and so the
				// fingerprint) without changing the language.
				src += "// v2\n"
			}
			flip = !flip
			if err := os.WriteFile(filepath.Join(dir, "decl.g"), []byte(src), 0o644); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
	close(reloadStop)
	reloads.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	if total.Load() < clients {
		t.Fatalf("only %d requests completed", total.Load())
	}
	t.Logf("stress: %d requests across %d clients (%d shed with 429) in %v",
		total.Load(), clients, shed.Load(), duration)
}
