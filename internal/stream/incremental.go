package stream

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"llstar/internal/interp"
	"llstar/internal/lexrt"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// Edit describes one text replacement: OldLen bytes at Offset are
// replaced by NewText. A pure insertion has OldLen 0; a pure deletion
// has NewText "".
type Edit struct {
	Offset  int    `json:"offset"`
	OldLen  int    `json:"old_len"`
	NewText string `json:"new_text"`
}

// ErrNotIncremental is returned by Edit on sessions not opened in
// incremental mode, or before Finish.
var ErrNotIncremental = errors.New("stream: session is not incremental (or not finished)")

// relexFeedChunk is how much of the edited text the relexer is fed at a
// time; small enough that an edit converging quickly never decodes the
// whole document.
const relexFeedChunk = 64 << 10

// Edit applies a text edit to a finished incremental session: it
// relexes only the damaged byte range (restarting at the earliest
// lexeme whose DFA scan reached the edit), splices the unchanged token
// tail back in at shifted offsets, rebases the memo table around the
// damage, and re-parses from the nearest enclosing rule whose span
// covers the damage plus a lookahead margin — falling back to wider
// enclosing rules and finally a full reparse when the repair does not
// line up. On success the session's text, tokens, tree, and stats
// reflect the new document. A parse failure (the edited text no longer
// parses) is returned as an error; the session stays editable — the
// text and tokens are updated, and the next successful Edit restores a
// tree via full reparse.
func (s *Session) Edit(e Edit) (err error) {
	if !s.opts.Incremental || !s.done {
		return ErrNotIncremental
	}
	t0 := s.now()
	defer func() { s.span("stream.edit", t0, int64(s.stats.RelexedTokens), err == nil) }()
	if e.Offset < 0 || e.OldLen < 0 || e.Offset+e.OldLen > len(s.text) {
		return fmt.Errorf("stream: edit out of range: offset=%d old_len=%d text=%d bytes", e.Offset, e.OldLen, len(s.text))
	}
	if s.opts.MaxBytes > 0 && int64(len(s.text)-e.OldLen+len(e.NewText)) > s.opts.MaxBytes {
		return ErrTooLarge
	}
	newText := make([]byte, 0, len(s.text)-e.OldLen+len(e.NewText))
	newText = append(newText, s.text[:e.Offset]...)
	newText = append(newText, e.NewText...)
	newText = append(newText, s.text[e.Offset+e.OldLen:]...)

	s.stats.Edits++
	if !s.clean || s.tree == nil {
		// The retained state is not a clean parse (prior failure or
		// recovered errors): rebuild from scratch.
		return s.rebuildAll(newText)
	}
	sp, err := s.relex(e, newText)
	if err != nil {
		// Lex error: reject the edit, session state unchanged.
		return err
	}
	s.noteEditReuse(sp)
	if !sp.structural {
		// Only hidden text changed: token types and texts are
		// identical, so the tree shape and every memo verdict stand.
		// Adopt the re-positioned tokens; with aliased leaves and an
		// in-place splice the positions already updated for free.
		s.adopt(newText, sp)
		if !(sp.inPlace && s.aliased) {
			s.renumberLeaves()
		}
		s.err = nil
		return nil
	}
	kept, dropped := s.memo.Rebase(sp.damStart, sp.damEnd, sp.tokenDelta, s.maxK)
	s.stats.ReusedMemo, s.stats.DroppedMemo = kept, dropped
	graft, graftBase, err := s.reparse(sp.newTokens, sp)
	s.adopt(newText, sp)
	if err != nil {
		s.tree = nil
		s.clean = false
		s.aliased = false
		s.err = err
		return err
	}
	if sp.inPlace && s.aliased && graft != nil {
		// The unchanged tree already aliases the spliced array; only
		// the grafted fragment's fresh leaves need pointing at it.
		s.renumberFrom(graft, graftBase)
	} else {
		s.renumberLeaves()
	}
	s.clean = true
	s.err = nil
	s.maxK = max(s.maxK, s.sink.maxK)
	return nil
}

// splice is the outcome of relexing an edit's damaged range.
type splice struct {
	newTokens  []token.Token // full new token array, renumbered, EOF last
	newUnits   []lexrt.Unit
	damStart   int // first replaced token index (old numbering)
	damEnd     int // first reused token index (old numbering)
	relexed    int // on-channel tokens produced by relexing
	tokenDelta int // len(new damage tokens) - (damEnd - damStart)
	structural bool
	inPlace    bool // newTokens is s.tokens spliced in place (tokenDelta 0)
}

// relex restarts the lexer at the earliest unit whose scan reached the
// edit and lexes forward until a unit start re-aligns with the old
// unit sequence past the edit (or end of input).
func (s *Session) relex(e Edit, newText []byte) (*splice, error) {
	delta := len(e.NewText) - e.OldLen
	editEndNew := e.Offset + len(e.NewText)

	// Restart point: first unit whose examined bytes reach the edit.
	u0 := sort.Search(len(s.units), func(i int) bool { return s.units[i].Extent > e.Offset })
	startOff, startLine, startCol := 0, 1, 1
	if u0 == len(s.units) {
		// Nothing scanned the edited bytes: appending at the very end.
		eof := s.tokens[len(s.tokens)-1]
		startOff, startLine, startCol = eof.Off, eof.Pos.Line, eof.Pos.Col
	} else if u0 > 0 {
		u := s.units[u0]
		startOff, startLine, startCol = u.Off, u.Line, u.Col
	}

	rl := lexrt.NewChunk(s.res.Machine.Lex)
	rl.RecordUnits()
	rl.SetPosition(startOff, startLine, startCol)
	feedPos := startOff
	feed := func() {
		if feedPos >= len(newText) {
			rl.Finish()
			return
		}
		end := feedPos + relexFeedChunk
		if end > len(newText) {
			end = len(newText)
		}
		rl.Feed(newText[feedPos:end])
		feedPos = end
	}

	var produced []token.Token // on-channel tokens from the relex
	convOffOld := -1           // old byte offset where relexing re-aligned
	lineDelta, colDelta, convLineOld := 0, 0, 0
	sawEOF := false
	for {
		t, ok, lerr := rl.Next()
		if lerr != nil {
			return nil, lerr
		}
		if !ok {
			feed()
			continue
		}
		if t.Off >= editEndNew {
			if oldU, found := s.unitAt(t.Off - delta); found {
				// A unit starts here in both documents and the bytes
				// from here on are identical: everything after replays
				// exactly, so splice the old tail back in.
				convOffOld = t.Off - delta
				lineDelta = t.Pos.Line - oldU.Line
				colDelta = t.Pos.Col - oldU.Col
				convLineOld = oldU.Line
				break
			}
			if t.IsEOF() && len(newText)-delta == len(s.text) {
				// Reached the new EOF without re-aligning: nothing of
				// the old tail survives.
				produced = append(produced, t)
				sawEOF = true
				break
			}
		}
		if t.IsEOF() {
			produced = append(produced, t)
			sawEOF = true
			break
		}
		if t.Channel == 0 {
			produced = append(produced, t)
		}
	}

	// Token-level damage range in the old numbering.
	damStart := s.tokenIdxAt(startOff)
	damEnd := len(s.tokens)
	if !sawEOF {
		damEnd = s.tokenIdxAt(convOffOld)
	}

	// Structural verdict must precede assembly: the in-place splice
	// below overwrites the old damage range it compares against.
	structural := len(produced) != damEnd-damStart ||
		!sameTokens(produced, s.tokens[damStart:damEnd])

	// Assemble the new token array: untouched prefix, relexed damage,
	// shifted reused tail. The common case — an edit that does not
	// change the token count — splices in place: no reallocation, no
	// copy of the untouched prefix, and indices keep their positions.
	var newTokens []token.Token
	inPlace := len(produced) == damEnd-damStart
	if inPlace {
		newTokens = s.tokens
		copy(newTokens[damStart:damEnd], produced)
		for i := damStart; i < damEnd; i++ {
			newTokens[i].Index = i
		}
		for i := damEnd; i < len(newTokens); i++ {
			t := &newTokens[i]
			if t.Pos.Line == convLineOld {
				t.Pos.Col += colDelta
			}
			t.Pos.Line += lineDelta
			t.Off += delta
		}
	} else {
		newTokens = make([]token.Token, 0, damStart+len(produced)+(len(s.tokens)-damEnd))
		newTokens = append(newTokens, s.tokens[:damStart]...)
		newTokens = append(newTokens, produced...)
		reusedTail := s.tokens[damEnd:]
		for _, t := range reusedTail {
			if t.Pos.Line == convLineOld {
				t.Pos.Col += colDelta
			}
			t.Pos.Line += lineDelta
			t.Off += delta
			newTokens = append(newTokens, t)
		}
		for i := range newTokens {
			newTokens[i].Index = i
		}
	}

	// Same splice at the unit level, for the next edit.
	recorded := rl.Units()
	if convOffOld >= 0 {
		// Drop recorded units at/past the convergence point: the
		// shifted old units cover them.
		cut := len(recorded)
		for i, u := range recorded {
			if u.Off >= convOffOld+delta {
				cut = i
				break
			}
		}
		recorded = recorded[:cut]
	}
	var newUnits []lexrt.Unit
	uTail := len(s.units)
	if convOffOld >= 0 {
		uTail = sort.Search(len(s.units), func(i int) bool { return s.units[i].Off >= convOffOld })
	}
	if len(recorded) == uTail-u0 {
		// Same unit count: splice and shift in place.
		newUnits = s.units
		copy(newUnits[u0:uTail], recorded)
		for i := uTail; i < len(newUnits); i++ {
			u := &newUnits[i]
			if u.Line == convLineOld {
				u.Col += colDelta
			}
			u.Line += lineDelta
			u.Off += delta
			if u.Extent != lexrt.UnboundedExtent {
				u.Extent += delta
			}
		}
	} else {
		newUnits = make([]lexrt.Unit, 0, u0+len(recorded)+(len(s.units)-uTail))
		newUnits = append(newUnits, s.units[:u0]...)
		newUnits = append(newUnits, recorded...)
		for _, u := range s.units[uTail:] {
			if u.Line == convLineOld {
				u.Col += colDelta
			}
			u.Line += lineDelta
			u.Off += delta
			if u.Extent != lexrt.UnboundedExtent {
				u.Extent += delta
			}
			newUnits = append(newUnits, u)
		}
	}

	sp := &splice{
		newTokens:  newTokens,
		newUnits:   newUnits,
		damStart:   damStart,
		damEnd:     damEnd,
		relexed:    len(produced),
		tokenDelta: len(produced) - (damEnd - damStart),
		inPlace:    inPlace,
	}
	sp.structural = structural
	return sp, nil
}

// sameTokens reports type+text equality (positions ignored).
func sameTokens(a, b []token.Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Text != b[i].Text {
			return false
		}
	}
	return true
}

// unitAt finds the old unit starting exactly at byte off.
func (s *Session) unitAt(off int) (lexrt.Unit, bool) {
	i := sort.Search(len(s.units), func(i int) bool { return s.units[i].Off >= off })
	if i < len(s.units) && s.units[i].Off == off {
		return s.units[i], true
	}
	return lexrt.Unit{}, false
}

// tokenIdxAt returns the first old token index with Off >= off.
func (s *Session) tokenIdxAt(off int) int {
	return sort.Search(len(s.tokens), func(i int) bool { return s.tokens[i].Off >= off })
}

// adopt installs the spliced text/tokens/units as the session's state.
func (s *Session) adopt(newText []byte, sp *splice) {
	s.text = newText
	s.tokens = sp.newTokens
	s.units = sp.newUnits
}

// noteEditReuse updates the reuse statistics and metrics for one edit.
func (s *Session) noteEditReuse(sp *splice) {
	reused := len(sp.newTokens) - sp.relexed
	s.stats.ReusedTokens = reused
	s.stats.RelexedTokens = sp.relexed
	if total := reused + sp.relexed; total > 0 {
		s.stats.TokenReuseRatio = float64(reused) / float64(total)
	}
	s.stats.Tokens = len(sp.newTokens)
	if s.mx != nil {
		s.mx.Counter("llstar_stream_reused_tokens_total").Add(int64(reused))
	}
}

// reparse repairs the tree for a structural splice: it re-parses the
// smallest enclosing rule whose leaf span covers the damage plus the
// lookahead margin, widening to ancestors (and finally the start rule)
// until the repaired fragment consumes exactly the span the old one
// did, adjusted for the token delta.
func (s *Session) reparse(newTokens []token.Token, sp *splice) (graft *interp.Node, graftBase int, err error) {
	lo := sp.damStart - s.maxK
	if lo < 0 {
		lo = 0
	}
	hi := sp.damStart
	if sp.damEnd > sp.damStart {
		hi = sp.damEnd - 1
	}
	eofIdxOld := len(s.tokens) - 1

	var path []*interp.Node
	if hi < eofIdxOld {
		path = s.coverPath(lo, hi)
	}
	// Try candidates from the innermost out; each failed candidate
	// widens the repair region.
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		ns, ne, ok := leafSpan(n)
		if !ok {
			continue
		}
		if ridx := s.res.Machine.RuleIndexByName(n.Rule); ridx < 0 || s.res.Grammar.Rules[ridx].Args != "" {
			continue // parameterized rules lose their argument context
		}
		frag, stop, err := s.fragment(n.Rule, ns, newTokens)
		if err != nil {
			continue
		}
		if stop != ne+1+sp.tokenDelta {
			continue // repaired span disagrees: widen
		}
		// Splice the repaired subtree in place of the old one.
		parent := path[i-1]
		for ci, c := range parent.Children {
			if c == n {
				parent.Children[ci] = frag
				break
			}
		}
		return frag, ns, nil
	}
	// Full reparse from the start rule (still reusing rebased memo
	// verdicts).
	frag, stop, err := s.fragment(s.rule, 0, newTokens)
	if err != nil {
		return nil, 0, err
	}
	if stop != len(newTokens)-1 {
		return nil, 0, &runtime.SyntaxError{
			Offending: newTokens[stop], Rule: s.rule,
			Msg: "extraneous input after parse",
		}
	}
	s.tree = frag
	return nil, 0, nil
}

// fragment re-parses one rule over tokens starting at absolute token
// index base, reusing the session's memo table.
func (s *Session) fragment(rule string, base int, tokens []token.Token) (*interp.Node, int, error) {
	src := &runtime.SliceSource{Tokens: tokens[base:]}
	return s.ip.ParseFragment(rule, runtime.NewTokenStreamAt(src, base), s.memo)
}

// coverPath returns the chain of nodes from the root down to the
// smallest node whose leaf span covers [lo, hi].
func (s *Session) coverPath(lo, hi int) []*interp.Node {
	if s.tree == nil {
		return nil
	}
	ns, ne, ok := leafSpan(s.tree)
	if !ok || ns > lo || ne < hi {
		return nil
	}
	path := []*interp.Node{s.tree}
	cur := s.tree
	for {
		var next *interp.Node
		for _, c := range cur.Children {
			if c.Token != nil {
				continue
			}
			cs, ce, ok := leafSpan(c)
			if ok && cs <= lo && ce >= hi {
				next = c
				break
			}
		}
		if next == nil {
			return path
		}
		path = append(path, next)
		cur = next
	}
}

// leafSpan returns the first and last leaf token indexes under n.
// Cost is the depth to the outermost leaves, not the subtree size —
// coverPath calls it per candidate on repair paths near the root.
func leafSpan(n *interp.Node) (first, last int, ok bool) {
	f := firstLeaf(n)
	if f == nil {
		return 0, 0, false
	}
	return f.Token.Index, lastLeaf(n).Token.Index, true
}

// firstLeaf returns n's leftmost leaf (nil if the subtree is all-empty
// rule nodes).
func firstLeaf(n *interp.Node) *interp.Node {
	if n.Token != nil {
		return n
	}
	for _, c := range n.Children {
		if l := firstLeaf(c); l != nil {
			return l
		}
	}
	return nil
}

// lastLeaf returns n's rightmost leaf.
func lastLeaf(n *interp.Node) *interp.Node {
	if n.Token != nil {
		return n
	}
	for i := len(n.Children) - 1; i >= 0; i-- {
		if l := lastLeaf(n.Children[i]); l != nil {
			return l
		}
	}
	return nil
}

// renumberLeaves rewrites every leaf of the retained tree from the new
// token array, in order. Valid because a clean parse consumes each
// on-channel non-EOF token exactly once, left to right.
func (s *Session) renumberLeaves() {
	k := 0
	var walk func(n *interp.Node)
	walk = func(n *interp.Node) {
		if n.Token != nil {
			// Alias the session's token array instead of allocating a
			// copy per leaf: nothing mutates s.tokens entries except a
			// later in-place splice, which renumbers again.
			n.Token = &s.tokens[k]
			k++
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if s.tree != nil {
		walk(s.tree)
	}
	s.aliased = true
}

// renumberFrom re-points only the leaves under n, whose leftmost leaf
// has token index base — the grafted-fragment fast path when the rest
// of the tree already aliases the token array.
func (s *Session) renumberFrom(n *interp.Node, base int) {
	k := base
	var walk func(n *interp.Node)
	walk = func(n *interp.Node) {
		if n.Token != nil {
			n.Token = &s.tokens[k]
			k++
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
}

// rebuildAll relexes and reparses the whole document — the fallback
// when no clean prior state exists to repair.
func (s *Session) rebuildAll(newText []byte) error {
	rl := lexrt.NewChunk(s.res.Machine.Lex)
	rl.RecordUnits()
	rl.Feed(newText)
	rl.Finish()
	var tokens []token.Token
	for {
		t, _, err := rl.Next()
		if err != nil {
			return err
		}
		if t.Channel == 0 {
			tokens = append(tokens, t)
		}
		if t.IsEOF() {
			break
		}
	}
	for i := range tokens {
		tokens[i].Index = i
	}
	s.text = newText
	s.tokens = tokens
	s.units = rl.Units()
	s.memo = runtime.NewMemoTable(len(s.res.Grammar.Rules))
	s.stats.ReusedTokens = 0
	s.stats.RelexedTokens = len(tokens)
	s.stats.TokenReuseRatio = 0
	s.stats.Tokens = len(tokens)
	frag, stop, err := s.fragment(s.rule, 0, tokens)
	if err == nil && stop != len(tokens)-1 {
		err = &runtime.SyntaxError{Offending: tokens[stop], Rule: s.rule, Msg: "extraneous input after parse"}
	}
	if err != nil {
		s.tree = nil
		s.clean = false
		s.aliased = false
		s.err = err
		return err
	}
	s.tree = frag
	s.clean = true
	s.aliased = false
	s.err = nil
	s.maxK = max(s.maxK, s.sink.maxK)
	return nil
}

// TreeString renders the retained tree as an s-expression (empty when
// no tree is retained).
func (s *Session) TreeString() string {
	if s.tree == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(s.tree.String())
	return b.String()
}
