package server

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"llstar"
	"llstar/internal/obs"
)

func newTestRegistry(t *testing.T, grammars map[string]string) (*Registry, string, *obs.Metrics) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range grammars {
		if err := os.WriteFile(filepath.Join(dir, name+".g"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mx := obs.NewMetrics()
	return NewRegistry(dir, llstar.LoadOptions{Metrics: mx}, mx), dir, mx
}

func loadCount(mx *obs.Metrics, result string) int64 {
	return mx.Counter(obs.Label("llstar_server_grammar_loads_total", "result", result)).Value()
}

func TestRegistryNameValidation(t *testing.T) {
	r, _, _ := newTestRegistry(t, map[string]string{"expr": exprGrammar})
	for _, bad := range []string{"", "../expr", "a/b", `a\b`, ".hidden", "x..y", "a b"} {
		if _, err := r.Get(bad); !errors.Is(err, ErrBadName) {
			t.Errorf("Get(%q) = %v, want ErrBadName", bad, err)
		}
	}
	if _, err := r.Get("nosuch"); !errors.Is(err, ErrUnknownGrammar) {
		t.Errorf("Get(nosuch) = %v, want ErrUnknownGrammar", err)
	}
}

// TestRegistrySingleflight proves that any number of concurrent
// requests for a cold grammar trigger exactly one analysis.
func TestRegistrySingleflight(t *testing.T) {
	r, _, mx := newTestRegistry(t, map[string]string{"expr": exprGrammar})
	const n = 16
	entries := make([]*Entry, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e, err := r.Get("expr")
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("entry %d differs from entry 0", i)
		}
	}
	if got := loadCount(mx, "load"); got != 1 {
		t.Errorf("loads = %d, want 1", got)
	}
}

// TestRegistryHotReload covers the reload path: a content change swaps
// in a freshly analyzed grammar, while a bare touch (same fingerprint)
// keeps the warm grammar and its parser pool.
func TestRegistryHotReload(t *testing.T) {
	r, dir, mx := newTestRegistry(t, map[string]string{"expr": exprGrammar})
	path := filepath.Join(dir, "expr.g")

	e1, err := r.Get("expr")
	if err != nil {
		t.Fatal(err)
	}
	if loadCount(mx, "load") != 1 {
		t.Fatalf("initial load count: %d", loadCount(mx, "load"))
	}

	// Same bytes, newer mtime: re-analyzed, but the warm entry's
	// Grammar and Pool survive.
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	e2, err := r.Get("expr")
	if err != nil {
		t.Fatal(err)
	}
	if e2.G != e1.G || e2.Pool != e1.Pool {
		t.Error("touch replaced the warm grammar/pool")
	}
	if loadCount(mx, "unchanged") != 1 {
		t.Errorf("unchanged count: %d", loadCount(mx, "unchanged"))
	}
	// The refreshed identity sticks: the next Get is a pure cache hit.
	if e3, _ := r.Get("expr"); e3 != e2 {
		t.Error("identity refresh did not stick")
	}

	// A content change produces a new grammar with a new fingerprint.
	changed := exprGrammar + "// v2\n"
	if err := os.WriteFile(path, []byte(changed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	e4, err := r.Get("expr")
	if err != nil {
		t.Fatal(err)
	}
	if e4.G == e1.G {
		t.Error("content change did not reload")
	}
	if e4.G.Fingerprint() == e1.G.Fingerprint() {
		t.Error("fingerprint unchanged after content change")
	}
	if loadCount(mx, "reload") != 1 {
		t.Errorf("reload count: %d", loadCount(mx, "reload"))
	}

	// A reload that breaks the grammar keeps serving the last good
	// grammar, recording the failure.
	if err := os.WriteFile(path, []byte("grammar Broken; s : ; ;"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	eb, err := r.Get("expr")
	if err != nil {
		t.Fatalf("broken reload must serve the stale grammar: %v", err)
	}
	if eb.G != e4.G {
		t.Error("broken reload did not serve last good grammar")
	}
	if got := mx.Counter("llstar_server_reload_errors_total").Value(); got < 1 {
		t.Errorf("reload_errors_total = %d, want >= 1", got)
	}
	// ...and a vanished file keeps serving the last good grammar.
	if err := os.WriteFile(path, []byte(changed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(4*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("expr"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	e5, err := r.Get("expr")
	if err != nil {
		t.Fatalf("vanished file failed Get: %v", err)
	}
	if e5.G.Fingerprint() != e4.G.Fingerprint() {
		t.Error("vanished file did not serve last good grammar")
	}
}

// TestRegistryCompiledArtifact serves a grammar from a .llsc artifact
// with no source present, and proves source wins when both exist.
func TestRegistryCompiledArtifact(t *testing.T) {
	g, err := llstar.Load("expr.g", exprGrammar)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := g.WriteCompiled(filepath.Join(dir, "expr.llsc")); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(dir, llstar.LoadOptions{}, nil)

	e, err := r.Get("expr")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Compiled || !e.G.LoadedFromCache() {
		t.Errorf("artifact entry: compiled=%v fromCache=%v", e.Compiled, e.G.LoadedFromCache())
	}
	if e.Digest == "" || e.Digest != g.AnalysisDigest() {
		t.Errorf("digest mismatch: %q vs %q", e.Digest, g.AnalysisDigest())
	}
	p := e.Pool.Get()
	tree, perr := p.Parse("", "x = ( y ) ;")
	e.Pool.Put(p)
	if perr != nil || tree == nil {
		t.Fatalf("parse via artifact: %v", perr)
	}

	// Dropping a source file beside the artifact: source wins on the
	// next (re)load.
	if err := os.WriteFile(filepath.Join(dir, "expr.g"), []byte(exprGrammar), 0o644); err != nil {
		t.Fatal(err)
	}
	// The entry's backing file (.llsc) is untouched, so force a reload
	// through a fresh registry — resolution order is what's under test.
	r2 := NewRegistry(dir, llstar.LoadOptions{}, nil)
	e2, err := r2.Get("expr")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Compiled {
		t.Error("source did not win over artifact")
	}
}

// TestRegistryHotReloadThroughCache drives the hot-reload path with
// the persistent gcache enabled and concurrent readers: a writer flips
// the grammar source while readers Get and parse; once both versions
// have been analyzed, subsequent reloads are warm cache hits. Run
// under -race this covers the registry/gcache interaction end to end.
func TestRegistryHotReloadThroughCache(t *testing.T) {
	dir := t.TempDir()
	cacheDir := t.TempDir()
	path := filepath.Join(dir, "expr.g")
	v1 := exprGrammar
	v2 := exprGrammar + "// v2\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(dir, llstar.LoadOptions{CacheDir: cacheDir}, nil)
	// Load v1 before the writer starts: a cold load that reads the file
	// mid-write has no last good grammar to fall back on, and the reload
	// path is what this test drives.
	if _, err := r.Get("expr"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, err := r.Get("expr")
				if err != nil {
					t.Errorf("Get under reload: %v", err)
					return
				}
				p := e.Pool.Get()
				_, perr := p.Parse("", "x = ( y ) ;")
				e.Pool.Put(p)
				if perr != nil {
					t.Errorf("parse under reload: %v", perr)
					return
				}
			}
		}()
	}
	for flip := 0; flip < 10; flip++ {
		src := v1
		if flip%2 == 0 {
			src = v2
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(flip+1) * time.Second)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	readers.Wait()

	// Both versions live in the persistent cache now, so the final
	// reload of each is a warm start.
	des, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) < 2 {
		t.Errorf("cache holds %d artifacts, want >= 2", len(des))
	}
	e, err := r.Get("expr")
	if err != nil {
		t.Fatal(err)
	}
	if !e.G.LoadedFromCache() {
		t.Error("post-flip reload was not a cache hit")
	}
}

func TestRegistryNamesAndPreloadAll(t *testing.T) {
	r, dir, _ := newTestRegistry(t, map[string]string{"expr": exprGrammar, "decl": declGrammar})
	// Non-grammar files and invalid stems are ignored.
	os.WriteFile(filepath.Join(dir, "README.md"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, ".hidden.g"), []byte("x"), 0o644)
	names, err := r.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "decl" || names[1] != "expr" {
		t.Fatalf("names: %v", names)
	}
	if err := r.Preload([]string{"all"}); err != nil {
		t.Fatal(err)
	}
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range list {
		if !l.Loaded || l.Digest == "" {
			t.Errorf("preload all missed %q: %+v", l.Name, l)
		}
	}
	if err := r.Preload([]string{"nosuch"}); err == nil {
		t.Error("preload of unknown grammar did not error")
	}
}
