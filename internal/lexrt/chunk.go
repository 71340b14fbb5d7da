package lexrt

import (
	"slices"
	"unicode/utf8"

	"llstar/internal/atn"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// chunkCompactAt is the consumed-rune threshold past which the
// ChunkLexer may copy its unconsumed tail to the front of the buffer.
// It does so only once the consumed prefix is also at least as long as
// the tail, so each rune is moved at most once on average however the
// input is fed; retained memory stays proportional to the longest
// pending token plus the last feed, not the input.
const chunkCompactAt = 4096

// ChunkLexer tokenizes input that arrives in byte chunks. Tokens never
// split across chunk boundaries: when the DFA is still alive at the end
// of the buffered input the match is tentative — more bytes could
// extend it under maximal munch — so Next reports "need more input" and
// the unconsumed tail (including any partial UTF-8 sequence) is kept
// until the next Feed or Finish. Given the same bytes, the token
// sequence is the same however the input is sliced into chunks.
type ChunkLexer struct {
	rules    []atn.LexRuleInfo
	dfa      *atn.LexDFA
	err      error   // the DFA could not be built: every Next reports it
	buf      []byte  // undecoded bytes: at most one partial UTF-8 rune between Feeds
	runes    []rune  // decoded, not-yet-consumed window
	sizes    []uint8 // byte width of each rune in runes (actual source bytes, not re-encoded)
	pos      int     // next unconsumed rune in runes
	line     int
	col      int
	off      int // byte offset of runes[pos] in the overall input
	finished bool

	record bool
	units  []Unit
}

// Unit records one completed maximal-munch match — emitted, hidden, or
// skipped — with the byte extent its DFA simulation examined.
// Incremental relexing uses extents to find the earliest lexeme an edit
// can affect: a unit is untouched by a change at byte b iff Extent <= b.
type Unit struct {
	Off  int // byte offset of the unit's first byte
	Line int // 1-based start line
	Col  int // 1-based start column
	// Extent is the exclusive byte offset of the last byte the match
	// examined (maximal munch scans past the accepted end until the DFA
	// dies). UnboundedExtent when the DFA was still alive at forced end
	// of input — any append could have extended the match.
	Extent int
}

// UnboundedExtent marks a unit whose match was still extensible at end
// of input.
const UnboundedExtent = int(^uint(0) >> 2)

// NewChunk returns a chunk-fed lexer. Feed it bytes, then call Finish
// once the input ends.
func NewChunk(lm *atn.LexMachine) *ChunkLexer {
	c := &ChunkLexer{}
	c.init(lm)
	return c
}

// init points c at lm's shared DFA, building it if this is the
// machine's first lexer.
func (c *ChunkLexer) init(lm *atn.LexMachine) {
	c.rules = lm.Rules
	c.dfa, c.err = lm.DFA()
	c.line, c.col = 1, 1
}

// SetPosition overrides the position bookkeeping for the next token.
// Incremental reparse uses it to relex from the middle of a document
// with correct byte offsets and line/column numbers.
func (c *ChunkLexer) SetPosition(off, line, col int) {
	c.off, c.line, c.col = off, line, col
}

// Position returns the current byte offset and line/column — the start
// of the next unit to be matched.
func (c *ChunkLexer) Position() (off, line, col int) { return c.off, c.line, c.col }

// RecordUnits enables unit recording (see Unit). Incremental sessions
// turn it on so edits can locate safe relex restart points.
func (c *ChunkLexer) RecordUnits() { c.record = true }

// Units returns the units recorded so far, in input order.
func (c *ChunkLexer) Units() []Unit { return c.units }

// Feed appends a chunk of input bytes. It never blocks and never
// returns tokens — call Next until it reports no complete token.
func (c *ChunkLexer) Feed(p []byte) {
	c.buf = append(c.buf, p...)
	c.decode()
}

// Finish marks end of input: pending tentative matches become final and
// any trailing partial UTF-8 sequence decodes as replacement runes.
func (c *ChunkLexer) Finish() {
	c.finished = true
	c.decode()
}

// Finished reports whether Finish has been called.
func (c *ChunkLexer) Finished() bool { return c.finished }

// Pending returns the number of buffered, unconsumed runes — the
// tail held back waiting for a token boundary.
func (c *ChunkLexer) Pending() int { return len(c.runes) - c.pos }

// decode converts complete UTF-8 sequences from buf into runes. An
// incomplete trailing sequence waits for more bytes (unless finished);
// genuinely invalid bytes decode as width-1 U+FFFD, matching what
// []rune(string) produces for the same bytes.
func (c *ChunkLexer) decode() {
	c.runes = slices.Grow(c.runes, len(c.buf))
	c.sizes = slices.Grow(c.sizes, len(c.buf))
	n := 0
	for n < len(c.buf) {
		r, size := utf8.DecodeRune(c.buf[n:])
		if r == utf8.RuneError && size == 1 && !c.finished && !utf8.FullRune(c.buf[n:]) {
			break // possibly a rune prefix: wait for the next chunk
		}
		c.runes = append(c.runes, r)
		c.sizes = append(c.sizes, uint8(size))
		n += size
	}
	if n > 0 {
		c.buf = append(c.buf[:0], c.buf[n:]...)
	}
}

// Next returns the next token. ok=false means no complete token is
// available yet: either the buffer is empty or the DFA can still extend
// the current match — feed more bytes or call Finish. After Finish,
// Next drains the remaining tokens and then returns EOF forever.
func (c *ChunkLexer) Next() (token.Token, bool, error) {
	if c.err != nil {
		return token.Token{}, false, c.err
	}
	for {
		if c.pos >= len(c.runes) {
			if !c.finished {
				return token.Token{}, false, nil
			}
			return token.Token{Type: token.EOF, Pos: token.Pos{Line: c.line, Col: c.col}, Off: c.off}, true, nil
		}
		tok, skip, ok, err := c.match()
		if err != nil || !ok {
			return token.Token{}, ok, err
		}
		c.compact()
		if skip {
			continue
		}
		return tok, true, nil
	}
}

// match runs one maximal-munch scan from the current position. A match
// whose DFA is still alive at the end of the buffered runes is
// tentative (ok=false) unless the input is finished.
func (c *ChunkLexer) match() (tok token.Token, skip, ok bool, err error) {
	start := c.pos
	startPos := token.Pos{Line: c.line, Col: c.col}
	startOff := c.off

	d := c.dfa
	s := int32(0)
	bestEnd, bestRule := -1, -1
	if a := d.Accept[0]; a >= 0 {
		bestEnd, bestRule = start, int(a)
	}
	scan := 0 // bytes examined by the DFA simulation
	for i := start; i < len(c.runes); i++ {
		scan += int(c.sizes[i])
		if s = d.Next[int(s)*d.NumClasses+d.Class(c.runes[i])]; s < 0 {
			break
		}
		if a := d.Accept[s]; a >= 0 {
			bestEnd, bestRule = i+1, int(a)
		}
	}
	alive := s >= 0
	if alive && !c.finished {
		return token.Token{}, false, false, nil
	}
	if bestRule < 0 {
		return token.Token{}, false, false, &runtime.LexError{Pos: startPos, Rune: c.runes[start]}
	}
	if c.record {
		extent := startOff + scan
		if alive {
			// Still alive at end of input: an append could extend it.
			extent = UnboundedExtent
		}
		c.units = append(c.units, Unit{Off: startOff, Line: startPos.Line, Col: startPos.Col, Extent: extent})
	}
	c.advance(start, bestEnd)
	info := &c.rules[bestRule]
	if info.Skip {
		return token.Token{}, true, true, nil
	}
	return token.Token{Type: info.Type, Text: string(c.runes[start:bestEnd]), Pos: startPos, Off: startOff, Channel: info.Channel}, false, true, nil
}

// advance updates line/col/off over runes[start:end) and moves the cursor.
func (c *ChunkLexer) advance(start, end int) {
	for i := start; i < end; i++ {
		if c.runes[i] == '\n' {
			c.line++
			c.col = 1
		} else {
			c.col++
		}
		c.off += int(c.sizes[i])
	}
	c.pos = end
}

// compact drops consumed runes once enough have accumulated (see
// chunkCompactAt).
func (c *ChunkLexer) compact() {
	if c.pos < chunkCompactAt || c.pos < len(c.runes)-c.pos {
		return
	}
	n := copy(c.runes, c.runes[c.pos:])
	copy(c.sizes, c.sizes[c.pos:])
	c.runes = c.runes[:n]
	c.sizes = c.sizes[:n]
	c.pos = 0
}
