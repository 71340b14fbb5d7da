package llstar_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"unsafe"

	"llstar"
	"llstar/internal/bench"
)

// treeSnapshot is what a tree showed right after its parse: its
// rendering, its node count and every leaf's position and text.
type treeSnapshot struct {
	text   string
	count  int
	leaves []string
}

func snapshot(tree *llstar.Tree) treeSnapshot {
	s := treeSnapshot{text: tree.String(), count: tree.Count()}
	for _, l := range tree.Leaves() {
		s.leaves = append(s.leaves, fmt.Sprintf("%d@%d:%s", l.Index, l.Off, l.Text))
	}
	return s
}

// check reports how tree differs from s, or "" when it does not.
func (s treeSnapshot) check(tree *llstar.Tree) string {
	now := snapshot(tree)
	switch {
	case now.text != s.text:
		return "String() changed"
	case now.count != s.count:
		return fmt.Sprintf("Count() changed from %d to %d", s.count, now.count)
	case len(now.leaves) != len(s.leaves):
		return fmt.Sprintf("%d leaves became %d", len(s.leaves), len(now.leaves))
	}
	for i := range s.leaves {
		if now.leaves[i] != s.leaves[i] {
			return fmt.Sprintf("leaf %d changed from %s to %s", i, s.leaves[i], now.leaves[i])
		}
	}
	return ""
}

// heapInUse returns the live heap after two full collections: the
// second frees what sync.Pool caches kept through the first.
func heapInUse() uint64 {
	goruntime.GC()
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestTreeLifetime checks that a returned tree belongs to its caller: no
// later parse on the same parser, or on a pooled parser that went back
// to its pool before the tree was rendered, changes it; and the parser
// keeps no part of a tree alive once the caller drops it.
func TestTreeLifetime(t *testing.T) {
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{w.Input(1, 120), w.Input(2, 60), w.Input(3, 90)}

	t.Run("parser", func(t *testing.T) {
		p := g.NewParser(llstar.WithTree())
		var trees []*llstar.Tree
		var snaps []treeSnapshot
		for i, input := range inputs {
			tree, err := p.Parse(w.Start, input)
			if err != nil {
				t.Fatal(err)
			}
			trees, snaps = append(trees, tree), append(snaps, snapshot(tree))
			for j := 0; j < i; j++ {
				if diff := snaps[j].check(trees[j]); diff != "" {
					t.Errorf("tree of parse %d after parse %d: %s", j+1, i+1, diff)
				}
			}
		}
	})

	t.Run("pool", func(t *testing.T) {
		want := make([]treeSnapshot, len(inputs))
		ref := g.NewParser(llstar.WithTree())
		for i, input := range inputs {
			tree, err := ref.Parse(w.Start, input)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = snapshot(tree)
		}
		pool := g.NewParserPool(llstar.WithTree())
		const workers = 4
		errs := make(chan string, workers*len(inputs))
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				var trees []*llstar.Tree
				for i := range inputs {
					in := (k + i) % len(inputs)
					p := pool.Get()
					tree, err := p.Parse(w.Start, inputs[in])
					pool.Put(p)
					if err != nil {
						errs <- err.Error()
						return
					}
					// Render after Put, as the parse service does.
					if diff := want[in].check(tree); diff != "" {
						errs <- fmt.Sprintf("worker %d, parse %d: %s", k, i+1, diff)
					}
					trees = append(trees, tree)
				}
				for i, tree := range trees {
					if diff := want[(k+i)%len(inputs)].check(tree); diff != "" {
						errs <- fmt.Sprintf("worker %d, parse %d at the end: %s", k, i+1, diff)
					}
				}
			}(k)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	})

	large := w.Input(1, 480)
	t.Run("heap", func(t *testing.T) {
		if raceEnabled {
			t.Skip("heap figures under the race detector include its own state")
		}
		p := g.NewParser(llstar.WithTree())
		parse := func() {
			if _, err := p.Parse(w.Start, large); err != nil {
				t.Fatal(err)
			}
		}
		parse()
		first := heapInUse()
		for i := 1; i < 30; i++ {
			parse()
		}
		last := heapInUse()
		goruntime.KeepAlive(p)
		t.Logf("heap after 1 parse %.2f MB, after 30 %.2f MB", float64(first)/1e6, float64(last)/1e6)
		if last > first+1<<20 {
			t.Errorf("heap grew from %d to %d bytes over 29 parses whose trees were dropped", first, last)
		}
	})

	t.Run("release", func(t *testing.T) {
		if raceEnabled {
			t.Skip("heap figures under the race detector include its own state")
		}
		p := g.NewParser(llstar.WithTree())
		if _, err := p.Parse(w.Start, large); err != nil {
			t.Fatal(err)
		}
		tree, err := p.Parse(w.Start, large)
		if err != nil {
			t.Fatal(err)
		}
		// held is what the tree's nodes, children slices and leaf tokens
		// take at the least.
		var held uintptr
		tree.Walk(func(n *llstar.Tree) bool {
			held += unsafe.Sizeof(*n) + uintptr(len(n.Children))*unsafe.Sizeof(n)
			if n.Token != nil {
				held += unsafe.Sizeof(*n.Token)
			}
			return true
		})
		with := heapInUse()
		goruntime.KeepAlive(tree)
		tree = nil
		without := heapInUse()
		goruntime.KeepAlive(p)
		freed := int64(with) - int64(without)
		t.Logf("tree holds at least %.2f MB; dropping it freed %.2f MB", float64(held)/1e6, float64(freed)/1e6)
		if freed < int64(held/2) {
			t.Errorf("dropping a tree of at least %d bytes freed %d", held, freed)
		}
	})
}

// TestSessionHeapUnderEdits opens an incremental session over a
// 480-line document of each benchmark grammar and applies 400 seeded
// one-digit edits. Edits graft reparsed fragments into the session's
// tree, so what a graft replaces must be freed: the session's heap
// after the edits stays within 25% of its heap after open.
func TestSessionHeapUnderEdits(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap measurement over 2,400 edits")
	}
	const edits = 400
	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			g, err := w.Load()
			if err != nil {
				t.Fatal(err)
			}
			text := w.Input(1, 480)
			// A first parse builds the grammar's lazily built tables, so
			// the heap below counts only the session.
			if _, err := g.NewParser().Parse(w.Start, text); err != nil {
				t.Fatal(err)
			}
			doc := []byte(text)
			var digits []int
			for i, c := range doc {
				if c >= '1' && c <= '9' {
					digits = append(digits, i)
				}
			}
			rng := rand.New(rand.NewSource(1))
			base := heapInUse()
			s, err := g.NewSession(llstar.WithStartRule(w.Start), llstar.WithIncremental())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Feed([]byte(text)); err != nil {
				t.Fatal(err)
			}
			if err := s.Finish(); err != nil {
				t.Fatal(err)
			}
			opened := heapInUse() - base
			for i := 0; i < edits; i++ {
				// Replace a digit 1-9 with another: still a valid document.
				off := digits[rng.Intn(len(digits))]
				d := byte('1' + rng.Intn(8))
				if d >= doc[off] {
					d++
				}
				doc[off] = d
				if err := s.Edit(llstar.Edit{Offset: off, OldLen: 1, NewText: string(d)}); err != nil {
					t.Fatalf("edit %d: %v", i+1, err)
				}
			}
			edited := heapInUse() - base
			goruntime.KeepAlive(s)
			t.Logf("session heap %.2f MB after open, %.2f MB after %d edits (%+.1f%%)",
				float64(opened)/1e6, float64(edited)/1e6, edits, 100*(float64(edited)/float64(opened)-1))
			if float64(edited) > 1.25*float64(opened) {
				t.Errorf("session heap grew from %d to %d bytes over %d edits", opened, edited, edits)
			}
		})
	}
}
