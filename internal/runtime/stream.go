// Package runtime provides the LL(*) parser runtime (Section 4 of the
// paper): buffered token streams with mark/rewind for speculation, the
// packrat memoization table, per-decision profiling counters (the raw
// material for Tables 2–4), syntax-error values that point at the
// offending token (Section 4.4), and the hook registry through which
// host-language semantic predicates and actions are bound.
package runtime

import (
	"slices"

	"llstar/internal/token"
)

// TokenSource produces tokens; the lexer engine implements it, and tests
// can supply slices via SliceSource.
type TokenSource interface {
	// NextToken returns the next token. After end of input it must keep
	// returning a token with Type == token.EOF.
	NextToken() (token.Token, error)
}

// SliceSource is a TokenSource over a fixed slice, for tests and tools.
type SliceSource struct {
	Tokens []token.Token
	i      int
}

// NextToken implements TokenSource.
func (s *SliceSource) NextToken() (token.Token, error) {
	if s.i >= len(s.Tokens) {
		return token.Token{Type: token.EOF, Pos: s.eofPos()}, nil
	}
	t := s.Tokens[s.i]
	s.i++
	return t, nil
}

func (s *SliceSource) eofPos() token.Pos {
	if len(s.Tokens) == 0 {
		return token.Pos{Line: 1, Col: 1}
	}
	p := s.Tokens[len(s.Tokens)-1].Pos
	p.Col += len(s.Tokens[len(s.Tokens)-1].Text)
	return p
}

// trimKeepBehind is how many already-consumed tokens TrimTo retains
// behind the requested position (error messages may still reference the
// previous token).
const trimKeepBehind = 2

// trimCompactAt is the dead-prefix length that triggers a physical
// copy-down, amortizing compaction cost over many trims.
const trimCompactAt = 1024

// TokenStream is a buffered stream over a TokenSource supporting
// arbitrary lookahead (LT/LA), seeking for backtracking, and a high-water
// mark for measuring lookahead depth per decision event.
//
// All positions (Index, Seek, watermark, token.Index) are absolute: the
// stream may start at a nonzero base (NewTokenStreamAt) and, in windowed
// mode (EnableWindow + TrimTo), may physically discard retired tokens —
// absolute indexes stay stable either way.
type TokenStream struct {
	src    TokenSource
	tokens []token.Token // tokens[i] has absolute index base+i
	base   int           // absolute index of tokens[0]
	p      int           // absolute index of the current (next unconsumed) token
	err    error
	window bool

	// high is the largest absolute index examined since WatermarkReset;
	// used by the profiler to measure lookahead depth.
	high int
}

// NewTokenStream returns a stream reading lazily from src. Off-channel
// tokens (Channel != 0) are filtered out.
func NewTokenStream(src TokenSource) *TokenStream {
	return &TokenStream{src: src, high: -1}
}

// NewTokenStreamAt returns a stream whose first token has absolute index
// base. Incremental reparse uses it to parse a fragment of a larger
// document under the document's own token numbering, so memoized
// verdicts keyed by absolute position stay valid.
func NewTokenStreamAt(src TokenSource, base int) *TokenStream {
	return &TokenStream{src: src, base: base, p: base, high: -1}
}

// Grow reserves buffer room for n more tokens. A caller that can
// estimate the input's token count calls it before the parse, so the
// buffer is allocated once instead of regrown as the parse reads ahead.
func (s *TokenStream) Grow(n int) { s.tokens = slices.Grow(s.tokens, n) }

// EnableWindow allows TrimTo to discard retired tokens. Off by default:
// batch parsing keeps the whole buffer so the tree and error paths can
// assume it.
func (s *TokenStream) EnableWindow() { s.window = true }

// TrimTo declares that no position below abs will ever be read or
// Seek'd to again. In windowed mode the dead prefix (minus a small
// keep-behind margin) is released once large enough; the return value
// is the new base after a physical compaction, or -1 when nothing was
// released. No-op when windowing is off.
//
// Safety: the parser only rewinds to speculation start points, which
// are never below the last non-speculative consume — so trimming at
// each such consume can never discard a live rewind target.
func (s *TokenStream) TrimTo(abs int) int {
	if !s.window {
		return -1
	}
	lo := abs - trimKeepBehind
	if lo <= s.base {
		return -1
	}
	dead := lo - s.base
	if dead < trimCompactAt {
		return -1
	}
	n := copy(s.tokens, s.tokens[dead:])
	// Zero the vacated tail so retired token text is actually collectable.
	tail := s.tokens[n:]
	for i := range tail {
		tail[i] = token.Token{}
	}
	s.tokens = s.tokens[:n]
	s.base = lo
	return s.base
}

// fill ensures the buffer covers absolute index n.
func (s *TokenStream) fill(n int) {
	for s.base+len(s.tokens) <= n {
		if s.err != nil {
			// After a lex error, pad with EOF so parsing can stop.
			s.tokens = append(s.tokens, token.Token{Type: token.EOF, Index: s.base + len(s.tokens)})
			continue
		}
		t, err := s.src.NextToken()
		if err != nil {
			s.err = err
			continue
		}
		if t.Channel != 0 && t.Type != token.EOF {
			continue
		}
		t.Index = s.base + len(s.tokens)
		s.tokens = append(s.tokens, t)
		if t.Type == token.EOF {
			// Keep exactly one EOF; fill re-serves it via index clamp.
			break
		}
	}
}

// clamp maps an absolute index past EOF back onto the EOF token.
func (s *TokenStream) clamp(i int) int {
	s.fill(i)
	if i >= s.base+len(s.tokens) {
		return s.base + len(s.tokens) - 1
	}
	return i
}

// LT returns the token i positions ahead (LT(1) is the current token).
func (s *TokenStream) LT(i int) token.Token {
	idx := s.p + i - 1
	if idx >= s.base+len(s.tokens) {
		idx = s.clamp(idx)
	}
	if idx > s.high {
		s.high = idx
	}
	return s.tokens[idx-s.base]
}

// LA returns the token type i positions ahead.
func (s *TokenStream) LA(i int) token.Type {
	idx := s.p + i - 1
	if idx >= s.base+len(s.tokens) {
		idx = s.clamp(idx)
	}
	if idx > s.high {
		s.high = idx
	}
	return s.tokens[idx-s.base].Type
}

// Consume advances past the current token.
func (s *TokenStream) Consume() {
	s.fill(s.p)
	if s.tokens[s.p-s.base].Type != token.EOF {
		s.p++
	}
}

// Index returns the current absolute position.
func (s *TokenStream) Index() int { return s.p }

// Seek rewinds (or fast-forwards) to an absolute position.
func (s *TokenStream) Seek(i int) {
	s.fill(i)
	if i > s.base+len(s.tokens)-1 {
		i = s.base + len(s.tokens) - 1
	}
	s.p = i
}

// Err returns the first token-source error, if any.
func (s *TokenStream) Err() error { return s.err }

// Size returns the total number of tokens seen so far (including EOF
// once reached), counting any trimmed away; it grows as the parser
// looks ahead.
func (s *TokenStream) Size() int { return s.base + len(s.tokens) }

// Buffered returns the tokens currently held in memory — the live
// window in streaming mode, everything in batch mode. The slice aliases
// the stream's buffer; copy before retaining.
func (s *TokenStream) Buffered() []token.Token { return s.tokens }

// WatermarkReset resets the lookahead high-water mark and returns the
// previous one (absolute index, -1 if untouched).
func (s *TokenStream) WatermarkReset() int {
	h := s.high
	s.high = -1
	return h
}

// Watermark returns the largest absolute index examined since the last
// reset (-1 if none).
func (s *TokenStream) Watermark() int { return s.high }

// ExtendWatermark raises the high-water mark to at least h; nested
// lookahead measurements use it to restore an outer scope's mark.
func (s *TokenStream) ExtendWatermark(h int) {
	if h > s.high {
		s.high = h
	}
}
