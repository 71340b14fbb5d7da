package genrun

import (
	"math/rand"
	"strings"
	"testing"

	"llstar"
)

// synpredGrammar forces a syntactic-predicate fallback decision: stmt's
// first alternative is gated by (ID '=')=>, so the generated parser
// must speculate before committing, with PEG-mode backtracking behind
// every other ambiguous decision.
const synpredGrammar = `
grammar Stmt;
options { backtrack=true; memoize=true; }
prog : (stmt)+ ;
stmt : (ID '=')=> ID '=' sum ';'
     | sum ';'
     ;
sum  : prod (('+' | '-') prod)* ;
prod : atom (('*' | '/') atom)* ;
atom : INT
     | ID
     | '(' sum ')'
     | '-' atom
     ;
ID : ('a'..'z')+ ;
INT : ('0'..'9')+ ;
WS : (' '|'\t'|'\r'|'\n')+ { skip(); } ;
`

// TestGeneratedMemoizeToggle runs the checked-in figure2 parser — a
// PEG-mode grammar whose decisions actually speculate — with
// memoization forced on and forced off, asserting both modes produce
// identical verdicts, trees, and error positions (memoization is a pure
// speedup, never a semantic change).
func TestGeneratedMemoizeToggle(t *testing.T) {
	run := checkedIn["figure2"]
	on, off := true, false
	inputs := []string{
		"x", "-x", "---abc", "-5", "--42",
		"", "-", "--", "x-", "5 5",
		strings.Repeat("-", 40) + "zz",
		strings.Repeat("-", 40), // dies after deep speculation
	}
	for _, input := range inputs {
		got1 := run("t", input, &on, true)
		got2 := run("t", input, &off, true)
		if got1 != got2 {
			t.Errorf("memoize changed the verdict for %q:\n  on:  %+v\n  off: %+v", input, got1, got2)
		}
	}
}

// TestGeneratedSynpredFallback builds a parser for a grammar with an
// explicit (ID '=')=> syntactic predicate and checks the generated
// speculation machinery picks the right alternative in both directions,
// matching the interpreter exactly — including when the synpred
// succeeds but the committed parse then fails.
func TestGeneratedSynpredFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds Go modules")
	}
	g, err := llstar.LoadWith("stmt.g", synpredGrammar, llstar.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(g, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	inputs := []string{
		"x = 1 + 2;",        // synpred succeeds -> assignment alt
		"1 + 2;",            // synpred fails on INT -> expression alt
		"x + 2;",            // ID but no '=' -> synpred fails, expression alt
		"x = y = 1;",        // synpred succeeds, committed parse fails at inner '='
		"a = 1; b + 2; c;",  // mixed statements, loop re-predicts per stmt
		"x = (a + 1) * -b;", // assignment with nested speculation in atom
		"x =",               // synpred succeeds, commit fails at EOF
		"= 1;",              // neither alt viable
		"x = 1 + 2; 3 * 4;", // assignment then expression
		"-(-(-1)) - -2;",    // unary chain, expression alt
	}
	for _, input := range inputs {
		got, err := r.Do(Request{Rule: "prog", Input: input, Tree: true})
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		checkParity(t, input, interpVerdict(g, "prog", input), got)
	}
}

// TestGeneratedDeepSpeculation drives the checked-in parsers with
// inputs that force maximal speculation depth: hundreds of nested
// parens on calc (deep rule recursion inside a precedence loop) and
// long '-' prefixes on figure2 (the PEG-mode decision must speculate to
// the end of the prefix before choosing an alternative). The generated
// engine must agree with the interpreter on both acceptance and the
// failure position when the nesting is left unclosed.
func TestGeneratedDeepSpeculation(t *testing.T) {
	const depth = 200
	cases := []struct {
		pkg, grammar, start string
		inputs              []string
	}{
		{
			pkg: "calc", grammar: "calc.g", start: "e",
			inputs: []string{
				strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth),
				strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth-1), // unclosed
				strings.Repeat("(", depth) + strings.Repeat(")", depth),         // empty core
				strings.Repeat("1+", depth) + "1",
			},
		},
		{
			pkg: "figure2", grammar: "figure2.g", start: "t",
			inputs: []string{
				strings.Repeat("-", 500) + "abc",
				strings.Repeat("-", 500) + "7",
				strings.Repeat("-", 500), // speculation runs off the end
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.pkg, func(t *testing.T) {
			var rg repoGrammar
			for _, r := range repoGrammars {
				if r.File == c.grammar {
					rg = r
				}
			}
			g := loadRepoGrammar(t, rg)
			run := checkedIn[c.pkg]
			for _, input := range c.inputs {
				got := run(c.start, input, nil, true)
				label := input
				if len(label) > 24 {
					label = label[:24] + "..."
				}
				checkParity(t, label, interpVerdict(g, c.start, input), got)
			}
		})
	}
}

// TestGeneratedLexerNearCap builds the parser for a lexer whose DFA has
// 2^11 states — T is ('a'|'b')* 'a' followed by ten ('a'|'b'), so the
// lexer must remember the last eleven letters — and checks that the
// generated Tokenize and the interpreter's lexer agree on it: same
// tokens in the same trees, same lex error positions. Three more
// copies overflow the DFA state cap (see TestLexDFACap).
func TestGeneratedLexerNearCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds Go modules")
	}
	src := "grammar Cap;\ns : (T)+ ;\nT : ('a'|'b')* 'a'" + strings.Repeat(" ('a'|'b')", 10) + " ;\nWS : (' ')+ { skip(); } ;\n"
	g, err := llstar.Load("cap.g", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(g, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rnd := rand.New(rand.NewSource(1))
	inputs := []string{"ab", strings.Repeat("b", 12), "a" + strings.Repeat("b", 10)}
	for i := 0; i < 40; i++ {
		words := make([]string, 1+rnd.Intn(6))
		for j := range words {
			w := make([]byte, 11+rnd.Intn(12))
			for k := range w {
				w[k] = "ab"[rnd.Intn(2)]
			}
			words[j] = string(w)
		}
		inputs = append(inputs, strings.Join(words, " "))
	}
	accepted := 0
	for _, input := range inputs {
		got, err := r.Do(Request{Rule: "s", Input: input, Tree: true})
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		checkParity(t, input, interpVerdict(g, "s", input), got)
		if got.OK {
			accepted++
		}
	}
	if accepted < 5 || accepted == len(inputs) {
		t.Fatalf("%d of %d inputs parse, want a mix of accepted and rejected inputs", accepted, len(inputs))
	}
}
