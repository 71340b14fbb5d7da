package lexrt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"llstar/internal/atn"
	"llstar/internal/meta"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

func buildLex(t *testing.T, src string) *atn.LexMachine {
	t.Helper()
	g, err := meta.Parse("t.g", src)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	// No grammar.Validate here: only the lexer half is exercised, and
	// some repo grammars (calc.g) are left-recursive before rewriting.
	m, err := atn.Build(g)
	if err != nil {
		t.Fatalf("atn: %v", err)
	}
	return m.Lex
}

// chunkAll runs the chunk lexer over input split at the given byte
// offsets, pumping tokens out between feeds the way a session would.
func chunkAll(t *testing.T, lm *atn.LexMachine, input string, cuts []int) ([]token.Token, error) {
	t.Helper()
	c := NewChunk(lm)
	var out []token.Token
	drain := func() error {
		for {
			tok, ok, err := c.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if tok.IsEOF() {
				out = append(out, tok)
				return nil
			}
			out = append(out, tok)
		}
	}
	prev := 0
	for _, cut := range cuts {
		c.Feed([]byte(input[prev:cut]))
		if err := drain(); err != nil {
			return out, err
		}
		prev = cut
	}
	c.Feed([]byte(input[prev:]))
	if err := drain(); err != nil {
		return out, err
	}
	c.Finish()
	err := drain()
	return out, err
}

// batchAll runs the batch lexer and appends its EOF token, for
// comparison with chunkAll output.
func batchAll(t *testing.T, lm *atn.LexMachine, input string) ([]token.Token, error) {
	t.Helper()
	lx := New(lm, input)
	var out []token.Token
	for {
		tok, err := lx.NextToken()
		if err != nil {
			return out, err
		}
		out = append(out, tok)
		if tok.IsEOF() {
			return out, nil
		}
	}
}

func sameToks(a, b []token.Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		// Index is assigned by the token stream, not the lexer.
		x.Index, y.Index = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

const tortureGrammar = `
grammar T;
s : ID ;
ARROW : '->' ;
SHIFT : '<<' | '>>' ;
LE : '<=' ;
EQ : '==' ;
ASSIGN : '=' ;
LT : '<' ;
GT : '>' ;
MINUS : '-' ;
STRING : '"' (~('"'|'\\') | '\\' .)* '"' ;
ID : ('a'..'z'|'A'..'Z'|'\u00c0'..'\uffff')+ ;
INT : ('0'..'9')+ ;
WS : (' '|'\t'|'\r'|'\n')+ { skip(); } ;
`

// TestChunkBoundaryTorture splits inputs containing multi-character
// operators, escaped strings, and multi-byte UTF-8 runes at every byte
// offset (all 2-chunk splits, plus 3-chunk splits on a stride) and
// requires the token sequence to be byte-identical to the batch
// lexer's.
func TestChunkBoundaryTorture(t *testing.T) {
	lm := buildLex(t, tortureGrammar)
	inputs := []string{
		"a->b <= c << d >> e == f = g",
		`"hello \"world\" \\ end" abc`,
		"caf\u00e9 \u4e16\u754c \u6f22\u5b57x 42",
		"<<<=<<=->-x=== \"q\"",
		`"unclosed-at-first-chunk \" more" tail`,
	}
	for _, input := range inputs {
		want, werr := batchAll(t, lm, input)
		if werr != nil {
			t.Fatalf("batch lex %q: %v", input, werr)
		}
		n := len(input)
		for cut := 0; cut <= n; cut++ {
			got, err := chunkAll(t, lm, input, []int{cut})
			if err != nil {
				t.Fatalf("chunk lex %q cut=%d: %v", input, cut, err)
			}
			if !sameToks(got, want) {
				t.Fatalf("chunk lex %q cut=%d:\n got %+v\nwant %+v", input, cut, got, want)
			}
		}
		for c1 := 0; c1 <= n; c1 += 2 {
			for c2 := c1; c2 <= n; c2 += 3 {
				got, err := chunkAll(t, lm, input, []int{c1, c2})
				if err != nil {
					t.Fatalf("chunk lex %q cuts=%d,%d: %v", input, c1, c2, err)
				}
				if !sameToks(got, want) {
					t.Fatalf("chunk lex %q cuts=%d,%d mismatch", input, c1, c2)
				}
			}
		}
	}
}

// TestChunkRepoGrammars checks every 2-chunk split against the batch
// lexer for the four repository grammars.
func TestChunkRepoGrammars(t *testing.T) {
	cases := []struct {
		file  string
		input string
	}{
		{"calc.g", "1 + 23*(456 - 7) / 89"},
		{"figure1.g", "unsigned unsigned int x\ny = 42"},
		{"figure2.g", "- - abc"},
		{"json.g", `{"k\u00e9y": [1.5e-3, true, "v\\\"al"], "n": null}`},
	}
	for _, tc := range cases {
		src, err := os.ReadFile(filepath.Join("..", "..", "grammars", tc.file))
		if err != nil {
			t.Fatalf("read %s: %v", tc.file, err)
		}
		lm := buildLex(t, string(src))
		want, werr := batchAll(t, lm, tc.input)
		if werr != nil {
			t.Fatalf("%s: batch lex: %v", tc.file, werr)
		}
		for cut := 0; cut <= len(tc.input); cut++ {
			got, err := chunkAll(t, lm, tc.input, []int{cut})
			if err != nil {
				t.Fatalf("%s cut=%d: %v", tc.file, cut, err)
			}
			if !sameToks(got, want) {
				t.Fatalf("%s cut=%d:\n got %+v\nwant %+v", tc.file, cut, got, want)
			}
		}
	}
}

// TestChunkInvalidUTF8Deterministic: invalid bytes decode the same way
// regardless of chunking and in the batch lexer, each as a one-byte
// U+FFFD, so byte offsets after them stay exact.
func TestChunkInvalidUTF8Deterministic(t *testing.T) {
	lm := buildLex(t, tortureGrammar)
	input := "ab\xffcd \xc3("
	want, werr := batchAll(t, lm, input)
	if len(want) != 2 || want[1].Off != 6 {
		t.Fatalf("batch tokens %+v, want two IDs, the second at byte offset 6", want)
	}
	if le, ok := werr.(*runtime.LexError); !ok || le.Rune != '(' || le.Pos.Col != 8 {
		t.Fatalf("batch error %v, want a LexError at '(' in column 8", werr)
	}
	for cut := -1; cut <= len(input); cut++ {
		cuts := []int{cut}
		if cut < 0 {
			cuts = nil
		}
		got, err := chunkAll(t, lm, input, cuts)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("cut=%d: err=%v want %v", cut, err, werr)
		}
		if !sameToks(got, want) {
			t.Fatalf("cut=%d: %+v want %+v", cut, got, want)
		}
	}
}

// TestChunkEOFForever: after Finish, Next returns EOF indefinitely.
func TestChunkEOFForever(t *testing.T) {
	lm := buildLex(t, tortureGrammar)
	c := NewChunk(lm)
	c.Feed([]byte("ab"))
	c.Finish()
	sawEOF := 0
	for i := 0; i < 5; i++ {
		tok, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
		if tok.IsEOF() {
			sawEOF++
		}
	}
	if sawEOF != 4 {
		t.Fatalf("EOF count = %d, want 4", sawEOF)
	}
}

// TestChunkUnits: unit extents record how far each match scanned —
// the soundness anchor for incremental relexing. A token whose DFA is
// still alive at forced end of input (here the trailing ID) reports an
// unbounded extent, since appending bytes could extend it.
func TestChunkUnits(t *testing.T) {
	lm := buildLex(t, tortureGrammar)
	c := NewChunk(lm)
	c.RecordUnits()
	c.Feed([]byte(`ab "c" xy`))
	c.Finish()
	for {
		tok, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("starved before EOF")
		}
		if tok.IsEOF() {
			break
		}
	}
	units := c.Units()
	// ID WS STRING WS ID.
	if len(units) != 5 {
		t.Fatalf("units = %+v, want 5", units)
	}
	// ID "ab" at offset 0: maximal munch examined the space at offset 2,
	// so its extent is 3 (exclusive).
	if units[0].Off != 0 || units[0].Extent != 3 {
		t.Fatalf("unit 0 = %+v, want Off=0 Extent=3", units[0])
	}
	// STRING "c" at offset 3 stops dead at its closing quote: the DFA
	// examined through offset 6 plus the following space.
	if units[2].Off != 3 || units[2].Extent != 7 {
		t.Fatalf("unit 2 = %+v, want Off=3 Extent=7", units[2])
	}
	last := units[len(units)-1]
	if last.Off != 7 || last.Extent != UnboundedExtent {
		t.Fatalf("last unit = %+v, want Off=7 unbounded extent", last)
	}
}

// TestChunkPendingBounded: feeding many complete small tokens keeps the
// pending tail tiny — the lexer's buffer tracks the longest pending
// token, not the input.
func TestChunkPendingBounded(t *testing.T) {
	lm := buildLex(t, tortureGrammar)
	c := NewChunk(lm)
	for i := 0; i < 10000; i++ {
		c.Feed([]byte("abc 123 "))
		for {
			_, ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if p := c.Pending(); p > 8 {
			t.Fatalf("pending = %d after chunk %d, want small", p, i)
		}
	}
}

// TestChunkCompactionLinear: draining one large feed moves each rune at
// most once on average. Every compaction copies the unconsumed tail to
// the front of the buffer (len(c.runes) right after it, when c.pos
// drops), and the copies summed over the whole input stay within the
// input's rune count rather than growing with its square.
func TestChunkCompactionLinear(t *testing.T) {
	lm := buildLex(t, tortureGrammar)
	input := strings.Repeat("abc 123 ", 1<<20/8)
	c := NewChunk(lm)
	c.Feed([]byte(input))
	c.Finish()
	moved, compactions := 0, 0
	for {
		pos := c.pos
		tok, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
		if c.pos < pos {
			moved += len(c.runes)
			compactions++
		}
		if tok.IsEOF() {
			break
		}
	}
	if n := utf8.RuneCountInString(input); moved > n {
		t.Fatalf("compaction moved %d runes in %d copies for a %d-rune input, want <= %d", moved, compactions, n, n)
	}
}
