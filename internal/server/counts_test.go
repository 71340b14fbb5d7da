package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llstar"
	"llstar/internal/bench"
	"llstar/internal/server"
)

// TestParseResponseCounts: for every benchmark grammar, a /v1/parse
// response's text, tokens and nodes equal Tree.String(),
// len(Tree.Leaves()) and Tree.Count() of the same input parsed
// in-process, on the pooled path and the recovery path alike.
func TestParseResponseCounts(t *testing.T) {
	dir := t.TempDir()
	for _, w := range bench.Workloads {
		src, err := w.GrammarText()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, w.File), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := server.New(server.Config{GrammarDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			g, err := w.Load()
			if err != nil {
				t.Fatal(err)
			}
			input := w.Input(1, 40)
			tree, err := g.NewParser(llstar.WithTree()).Parse(w.Start, input)
			if err != nil {
				t.Fatal(err)
			}
			for _, recover := range []bool{false, true} {
				body, err := json.Marshal(map[string]any{
					"grammar": strings.TrimSuffix(w.File, ".g"), "rule": w.Start,
					"input": input, "recover": recover,
				})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/parse", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					OK     bool   `json:"ok"`
					Text   string `json:"text"`
					Tokens int    `json:"tokens"`
					Nodes  int    `json:"nodes"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !got.OK {
					t.Fatalf("recover=%v: status %d, ok=%v, err %v", recover, resp.StatusCode, got.OK, err)
				}
				if got.Text != tree.String() {
					t.Errorf("recover=%v: served text differs from Tree.String()", recover)
				}
				if want := len(tree.Leaves()); got.Tokens != want {
					t.Errorf("recover=%v: tokens = %d, want %d", recover, got.Tokens, want)
				}
				if want := tree.Count(); got.Nodes != want {
					t.Errorf("recover=%v: nodes = %d, want %d", recover, got.Nodes, want)
				}
			}
		})
	}
}
