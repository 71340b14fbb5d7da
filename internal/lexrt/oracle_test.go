package lexrt_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"llstar/internal/atn"
	"llstar/internal/bench"
	"llstar/internal/lexrt"
	"llstar/internal/meta"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// oracleGrammar is one lexer under differential test, with its seeded
// inputs (mutated copies are derived from them).
type oracleGrammar struct {
	name   string
	lm     *atn.LexMachine
	inputs []string
}

var (
	oracleOnce     sync.Once
	oracleGrammars []oracleGrammar
	oracleErr      error
)

// repoSamples are hand-written inputs for the repository grammars,
// which have no generators.
var repoSamples = map[string][]string{
	"calc.g":    {"1 + 23*(456 - 7) / 89\n(x)"},
	"figure1.g": {"unsigned unsigned int x\ny = 42"},
	"figure2.g": {"- - abc", "--5"},
	"json.g":    {`{"kéy": [1.5e-3, true, "v\\\"al"], "n": null}`},
}

// capGrammar is the 10-copy variant of the state-cap grammar: its
// lexer DFA needs 2^11 states, under the cap.
const capGrammar = "grammar Cap;\ns : (T)+ ;\nT : ('a'|'b')* 'a' ('a'|'b') ('a'|'b') ('a'|'b') ('a'|'b') ('a'|'b') ('a'|'b') ('a'|'b') ('a'|'b') ('a'|'b') ('a'|'b') ;\nWS : (' ')+ { skip(); } ;\n"

// unicodeGrammar partitions the alphabet above ASCII, which no
// repository or benchmark grammar does, so class lookups for wide runes
// are exercised too.
const unicodeGrammar = `
grammar U;
s : ID ;
ID : ('a'..'z'|'\u00c0'..'\u024f'|'\u0400'..'\u04ff'|'\u4e00'..'\u9fff')+ ;
SYM : '\u20ac' | '\u00a7'..'\u00b6' ;
STR : '"' (~('"'|'\u00e9'))* '"' ;
WS : (' '|'\n')+ { skip(); } ;
`

// loadOracleGrammars builds the lexers of the four repository grammars,
// the six benchmark grammars, the cap grammar and unicodeGrammar.
// Benchmark grammars lex three seeded generator inputs; the repository
// grammars lex their samples plus one input of every benchmark grammar,
// which exercises error positions.
func loadOracleGrammars(tb testing.TB) []oracleGrammar {
	tb.Helper()
	oracleOnce.Do(func() { oracleGrammars, oracleErr = buildOracleGrammars() })
	if oracleErr != nil {
		tb.Fatal(oracleErr)
	}
	return oracleGrammars
}

func buildOracleGrammars() ([]oracleGrammar, error) {
	build := func(name, src string) (*atn.LexMachine, error) {
		g, err := meta.Parse(name, src)
		if err != nil {
			return nil, err
		}
		// No grammar.Validate: only the lexer is exercised, and calc.g
		// is left-recursive before rewriting.
		m, err := atn.Build(g)
		if err != nil {
			return nil, err
		}
		return m.Lex, nil
	}
	var benchInputs []string
	var out []oracleGrammar
	for _, w := range bench.Workloads {
		src, err := w.GrammarText()
		if err != nil {
			return nil, err
		}
		lm, err := build(w.File, src)
		if err != nil {
			return nil, err
		}
		og := oracleGrammar{name: w.Name, lm: lm}
		for seed := int64(1); seed <= 3; seed++ {
			og.inputs = append(og.inputs, w.Input(seed, 30))
		}
		benchInputs = append(benchInputs, og.inputs[0])
		out = append(out, og)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "grammars", "*.g"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lm, err := build(f, string(src))
		if err != nil {
			return nil, err
		}
		inputs := append(append([]string(nil), repoSamples[filepath.Base(f)]...), benchInputs...)
		out = append(out, oracleGrammar{name: filepath.Base(f), lm: lm, inputs: inputs})
	}
	lm, err := build("cap.g", capGrammar)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(1))
	var ab strings.Builder
	for i := 0; i < 2000; i++ {
		ab.WriteByte("ab ab"[r.Intn(5)])
	}
	out = append(out, oracleGrammar{name: "cap", lm: lm, inputs: []string{ab.String(), "ba" + strings.Repeat("b", 9)}})
	if lm, err = build("unicode.g", unicodeGrammar); err != nil {
		return nil, err
	}
	alphabet := []string{"a", "z", "é", "À", "ÿ", "ɏ", "Ж", "ӿ", "中", "龥", "€", "§", "¶", `"`, " ", "\n"}
	uni := oracleGrammar{name: "unicode", lm: lm}
	for i := 0; i < 3; i++ {
		var b strings.Builder
		for j := 0; j < 400; j++ {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		uni.inputs = append(uni.inputs, b.String())
	}
	return append(out, uni), nil
}

// mutations derives adversarial copies of an input: flipped bytes, and
// multi-byte runes and invalid UTF-8 bytes inserted at random offsets.
func mutations(r *rand.Rand, input string) []string {
	out := []string{input}
	if input == "" {
		return out
	}
	for i := 0; i < 3; i++ {
		b := []byte(input)
		b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
		out = append(out, string(b))
	}
	for _, ins := range []string{"é", "€", "\U0001F600", "\xff", "\xc3"} {
		at := r.Intn(len(input) + 1)
		out = append(out, input[:at]+ins+input[at:])
	}
	return out
}

// drain pulls tokens from next through EOF or the first error.
func drain(next func() (token.Token, bool, error)) ([]token.Token, error) {
	var out []token.Token
	for {
		tok, ok, err := next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, fmt.Errorf("lexer starved after Finish")
		}
		out = append(out, tok)
		if tok.IsEOF() {
			return out, nil
		}
	}
}

// chunked lexes input fed in pieces split at cuts, pumping tokens out
// between feeds the way a streaming session does.
func chunked(lm *atn.LexMachine, input string, cuts []int) ([]token.Token, error) {
	c := lexrt.NewChunk(lm)
	var out []token.Token
	prev := 0
	for _, cut := range append(cuts, len(input)) {
		c.Feed([]byte(input[prev:cut]))
		prev = cut
		for {
			tok, ok, err := c.Next()
			if err != nil {
				return out, err
			}
			if !ok {
				break
			}
			out = append(out, tok)
		}
	}
	c.Finish()
	rest, err := drain(c.Next)
	return append(out, rest...), err
}

// agree requires the batch lexer and the chunk lexer at random cuts to
// reproduce the reference's tokens (type, text, line, col, byte offset,
// channel) and its LexError position.
func agree(t *testing.T, label string, lm *atn.LexMachine, input string, r *rand.Rand) {
	t.Helper()
	want, werr := lexrt.RefLex(lm, input)
	check := func(engine string, got []token.Token, err error) {
		t.Helper()
		if !sameLexErr(err, werr) {
			t.Fatalf("%s: %s error %v, reference %v", label, engine, err, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %s produced %d tokens, reference %d", label, engine, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s token %d = %+v (off %d, channel %d), reference %+v (off %d, channel %d)",
					label, engine, i, got[i], got[i].Off, got[i].Channel, want[i], want[i].Off, want[i].Channel)
			}
		}
	}
	lx := lexrt.New(lm, input)
	got, err := drain(func() (token.Token, bool, error) {
		tok, err := lx.NextToken()
		return tok, true, err
	})
	check("batch", got, err)
	for k := 0; k < 2; k++ {
		cuts := make([]int, r.Intn(5))
		for i := range cuts {
			cuts[i] = r.Intn(len(input) + 1)
		}
		sort.Ints(cuts)
		got, err := chunked(lm, input, cuts)
		check(fmt.Sprintf("chunk%v", cuts), got, err)
	}
}

func sameLexErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, ok1 := a.(*runtime.LexError)
	y, ok2 := b.(*runtime.LexError)
	return ok1 && ok2 && *x == *y
}

// TestLexerOracleDifferential: on every repository and benchmark
// grammar, seeded inputs and mutated copies lex identically under the
// table-driven lexer (batch and chunked) and the NFA reference.
func TestLexerOracleDifferential(t *testing.T) {
	for _, og := range loadOracleGrammars(t) {
		og := og
		t.Run(og.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			for i, input := range og.inputs {
				for j, m := range mutations(r, input) {
					agree(t, fmt.Sprintf("input %d mutation %d", i, j), og.lm, m, r)
				}
			}
		})
	}
}

// FuzzLexerTables is TestLexerOracleDifferential over fuzzed input:
// which picks the grammar, seed the chunk cuts.
func FuzzLexerTables(f *testing.F) {
	gs := loadOracleGrammars(f)
	for i, og := range gs {
		f.Add(uint8(i), og.inputs[0], int64(i))
	}
	f.Add(uint8(0), "ab\xffcd \xc3(", int64(0))
	f.Fuzz(func(t *testing.T, which uint8, input string, seed int64) {
		og := gs[int(which)%len(gs)]
		agree(t, og.name, og.lm, input, rand.New(rand.NewSource(seed)))
	})
}

// TestLexerAllocGuard: lexing over the shared tables allocates one
// string per emitted token plus a constant (the lexer and its decoded
// buffers) — nothing per character or per DFA state, at any input size.
func TestLexerAllocGuard(t *testing.T) {
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	lm := g.AnalysisResult().Machine.Lex
	for _, lines := range []int{120, 480} {
		input := w.Input(1, lines)
		tokens := 0
		allocs := testing.AllocsPerRun(5, func() {
			lx := lexrt.New(lm, input)
			for tokens = 0; ; tokens++ {
				tok, err := lx.NextToken()
				if err != nil {
					t.Fatal(err)
				}
				if tok.IsEOF() {
					break
				}
			}
		})
		t.Logf("%d lines: %.0f allocations for %d tokens", lines, allocs, tokens)
		if limit := float64(tokens + 64); allocs > limit {
			t.Errorf("%d lines: %.0f allocations for %d tokens, want <= %.0f", lines, allocs, tokens, limit)
		}
	}
}
