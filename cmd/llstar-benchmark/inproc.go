package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"llstar"
)

// treeDigest hashes a parse tree's shape and token texts without
// rendering it, so every parse-large tree can be checked cheaply.
func treeDigest(t *llstar.Tree) uint64 {
	h := fnv.New64a()
	var walk func(n *llstar.Tree)
	walk = func(n *llstar.Tree) {
		if n.Token != nil {
			h.Write([]byte{0})
			h.Write([]byte(strconv.Itoa(int(n.Token.Type))))
			h.Write([]byte(n.Token.Text))
			return
		}
		h.Write([]byte{1})
		h.Write([]byte(n.Rule))
		for _, c := range n.Children {
			walk(c)
		}
		h.Write([]byte{2})
	}
	if t != nil {
		walk(t)
	}
	return h.Sum64()
}

// runParseLarge parses the large inputs in-process, round-robin, with a
// tree-building parser per grammar.
func runParseLarge(r *run) error {
	sp, err := specs()
	if err != nil {
		return err
	}
	ins := r.genInputs(sp, purposeLarge, r.cfg.docs, r.cfg.largeLines)
	var gs []*llstar.Grammar
	setups, err := r.repeatSetup(func() (err error) {
		gs, err = loadAll(sp)
		return err
	})
	if err != nil {
		return err
	}

	// Warm-up parse of every input, which also fixes each tree's digest.
	parsers := make([]*llstar.Parser, len(gs))
	for i, g := range gs {
		parsers[i] = g.NewParser(llstar.WithTree())
	}
	want := make([]uint64, len(ins))
	for i, in := range ins {
		tree, err := parsers[in.g].Parse(sp[in.g].w.Start, in.text)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", sp[in.g].stem, err)
		}
		want[i] = treeDigest(tree)
	}

	m := newMeter()
	lat := make([][]float64, len(sp))
	var lines int
	var busy time.Duration
	r.loop(func(k int) {
		i := k % len(ins)
		in := ins[i]
		var tree *llstar.Tree
		var perr error
		t0, d := m.time(func() { tree, perr = parsers[in.g].Parse(sp[in.g].w.Start, in.text) })
		r.tr.add("parse-large.parse", t0, d, -1, int64(k), sp[in.g].stem, 0)
		switch {
		case perr != nil:
			r.fail(fmt.Errorf("%s: %w", sp[in.g].stem, perr))
		case treeDigest(tree) != want[i]:
			r.fail(fmt.Errorf("%s: tree differs from the warm-up parse", sp[in.g].stem))
		}
		lat[in.g] = append(lat[in.g], ms(float64(d)))
		lines += in.lines
		busy += d
	})
	m.stop()
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.setE2E(setups, lat, float64(lines)/busy.Seconds(), rss)
	return r.probe(sp, gs, ins, m.layers())
}

// loadRounds times rounds of one load per grammar, in a seeded order,
// checking every loaded grammar's analysis digest against want.
func (r *run) loadRounds(name string, sp []spec, want []string, load func(g int) (*llstar.Grammar, error)) ([][]float64, float64, []metric) {
	order := r.rng(purposeOrder)
	m := newMeter()
	lat := make([][]float64, len(sp))
	var busy time.Duration
	var perm []int
	r.loop(func(k int) {
		if k%len(sp) == 0 {
			perm = order.Perm(len(sp))
		}
		g := perm[k%len(sp)]
		var lg *llstar.Grammar
		var err error
		t0, d := m.time(func() { lg, err = load(g) })
		r.tr.add(name, t0, d, -1, int64(k), sp[g].stem, 0)
		switch {
		case err != nil:
			r.fail(fmt.Errorf("%s: %w", sp[g].stem, err))
		case lg.AnalysisDigest() != want[g]:
			r.fail(fmt.Errorf("%s: analysis digest differs from the first load", sp[g].stem))
		}
		lat[g] = append(lat[g], ms(float64(d)))
		busy += d
	})
	m.stop()
	return lat, float64(r.res.Attempted) / busy.Seconds(), m.layers()
}

// digests returns each grammar's analysis digest.
func digests(gs []*llstar.Grammar) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.AnalysisDigest()
	}
	return out
}

// runGrammarLoad times cold loads: grammar text to an analyzed grammar.
func runGrammarLoad(r *run) error {
	sp, err := specs()
	if err != nil {
		return err
	}
	for _, s := range sp {
		r.addInput(s.text)
	}
	ins := r.genInputs(sp, purposeSample, 1, r.cfg.smallLines)
	// Set-up is a first load of every grammar, whose analysis digests are
	// the reference every timed load is checked against.
	var gs []*llstar.Grammar
	var want []string
	setups, err := r.repeatSetup(func() (err error) {
		gs, err = loadAll(sp)
		if err == nil {
			want = digests(gs)
		}
		return err
	})
	if err != nil {
		return err
	}
	lat, tput, proc := r.loadRounds("grammar-load.load", sp, want, func(g int) (*llstar.Grammar, error) {
		return llstar.Load(sp[g].w.File, sp[g].text)
	})
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.setE2E(setups, lat, tput, rss)
	return r.probe(sp, gs, ins, proc)
}

// runArtifactLoad times warm loads from serialized analysis artifacts.
func runArtifactLoad(r *run) error {
	sp, err := specs()
	if err != nil {
		return err
	}
	for _, s := range sp {
		r.addInput(s.text)
	}
	ins := r.genInputs(sp, purposeSample, 1, r.cfg.smallLines)
	// Set-up is producing the artifacts: six cold loads and marshals.
	var gs []*llstar.Grammar
	arts := make([][]byte, len(sp))
	setups, err := r.repeatSetup(func() (err error) {
		if gs, err = loadAll(sp); err != nil {
			return err
		}
		for i, g := range gs {
			if arts[i], err = g.MarshalAnalysis(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	want := digests(gs)
	for i := range sp { // warm-up round
		if _, err := llstar.UnmarshalAnalysis(arts[i]); err != nil {
			return fmt.Errorf("warm-up %s: %w", sp[i].stem, err)
		}
	}
	lat, tput, proc := r.loadRounds("artifact-load.load", sp, want, func(g int) (*llstar.Grammar, error) {
		return llstar.UnmarshalAnalysis(arts[g])
	})
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.setE2E(setups, lat, tput, rss)
	return r.probe(sp, gs, ins, proc)
}

// streamChunk is the feed size for opening sessions, a typical network
// read.
const streamChunk = 64 << 10

// openSession opens an incremental session over text.
func openSession(g *llstar.Grammar, rule, text string) (*llstar.Session, error) {
	s, err := g.NewSession(llstar.WithStartRule(rule), llstar.WithIncremental())
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(text); i += streamChunk {
		if err := s.Feed([]byte(text[i:min(i+streamChunk, len(text))])); err != nil {
			return nil, err
		}
	}
	if err := s.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// digitEditor plans one-digit edits to a document: replace a digit 1-9
// with a different one, which keeps the text valid in every benchmark
// grammar (digits only occur in numbers, identifiers and literals).
type digitEditor struct {
	text   []byte // the document as the edits left it
	digits []int  // offsets of the digits 1-9; edits never move them
}

func newDigitEditor(text string) *digitEditor {
	e := &digitEditor{text: []byte(text)}
	for i := 0; i < len(text); i++ {
		if text[i] >= '1' && text[i] <= '9' {
			e.digits = append(e.digits, i)
		}
	}
	return e
}

// next draws the next edit and applies it to the editor's copy.
func (e *digitEditor) next(rng *rand.Rand) llstar.Edit {
	off := e.digits[rng.Intn(len(e.digits))]
	d := byte('1' + rng.Intn(8))
	if d >= e.text[off] {
		d++
	}
	e.text[off] = d
	return llstar.Edit{Offset: off, OldLen: 1, NewText: string(d)}
}

// runSessionEdit applies seeded one-digit edits round-robin to
// incremental sessions over large documents.
func runSessionEdit(r *run) error {
	sp, err := specs()
	if err != nil {
		return err
	}
	ins := r.genInputs(sp, purposeLarge, r.cfg.docs, r.cfg.largeLines)
	gs, err := loadAll(sp)
	if err != nil {
		return err
	}
	sessions := make([]*llstar.Session, len(ins))
	setups, err := r.repeatSetup(func() (err error) {
		for i, in := range ins {
			if sessions[i], err = openSession(gs[in.g], sp[in.g].w.Start, in.text); err != nil {
				return fmt.Errorf("open %s: %w", sp[in.g].stem, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	editors := make([]*digitEditor, len(ins))
	fresh := make([]*llstar.Parser, len(gs))
	for i, in := range ins {
		editors[i] = newDigitEditor(in.text)
		if len(editors[i].digits) == 0 {
			return fmt.Errorf("%s document has no digits to edit", sp[in.g].stem)
		}
	}
	for i, g := range gs {
		fresh[i] = g.NewParser(llstar.WithTree())
	}
	rng := r.rng(purposeEdits)
	for k := 0; k < 2*len(ins); k++ { // warm-up
		i := k % len(ins)
		if err := sessions[i].Edit(editors[i].next(rng)); err != nil {
			return fmt.Errorf("warm-up edit: %w", err)
		}
	}

	m := newMeter()
	lat := make([][]float64, len(sp))
	var busy time.Duration
	r.loop(func(k int) {
		i := k % len(ins)
		g := ins[i].g
		e := editors[i].next(rng)
		var err error
		t0, d := m.time(func() { err = sessions[i].Edit(e) })
		r.tr.add("session-edit.edit", t0, d, -1, int64(k), sp[g].stem, 0)
		if err != nil {
			r.fail(fmt.Errorf("%s edit: %w", sp[g].stem, err))
		} else if k%50 == 49 {
			if err := sameAsFresh(fresh[g], sp[g].w.Start, sessions[i], editors[i].text); err != nil {
				r.fail(err)
			}
		}
		lat[g] = append(lat[g], ms(float64(d)))
		busy += d
	})
	m.stop()
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.setE2E(setups, lat, float64(r.res.Attempted)/busy.Seconds(), rss)
	return r.probe(sp, gs, ins, m.layers())
}

// sameAsFresh checks an edited session against a fresh parse of the
// text the edits should have produced.
func sameAsFresh(p *llstar.Parser, rule string, s *llstar.Session, text []byte) error {
	if string(s.Text()) != string(text) {
		return fmt.Errorf("session text differs from the edited document")
	}
	tree, err := p.Parse(rule, string(text))
	if err != nil {
		return fmt.Errorf("fresh parse of the edited document: %w", err)
	}
	if tree.String() != s.TreeString() {
		return fmt.Errorf("incremental tree differs from a fresh parse")
	}
	return nil
}
