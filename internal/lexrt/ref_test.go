package lexrt

import (
	"llstar/internal/atn"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// refLex is the reference the differential tests hold both drivers to:
// a direct simulation of the lexer NFA over configuration sets, with no
// interning and no tables. From each position it follows every NFA path
// in parallel; the longest prefix some rule accepts wins, and among the
// rules accepting it the lowest-index one. It returns the tokens on
// every channel (skip-rule matches dropped) through EOF, or the tokens
// before the first unmatchable character and that character's
// *runtime.LexError. Invalid UTF-8 bytes read as one-byte U+FFFD.
func refLex(lm *atn.LexMachine, input string) ([]token.Token, error) {
	accept := make(map[*atn.State]int, len(lm.Rules))
	for i, info := range lm.Rules {
		accept[info.Stop] = i
	}
	mark := make([]int, len(lm.States))
	gen := 0
	// closure adds s and every state ε-reachable from it to set.
	var closure func(set []*atn.State, s *atn.State) []*atn.State
	closure = func(set []*atn.State, s *atn.State) []*atn.State {
		if mark[s.ID] == gen {
			return set
		}
		mark[s.ID] = gen
		set = append(set, s)
		for _, tr := range s.Trans {
			if tr.Kind == atn.TEpsilon {
				set = closure(set, tr.To)
			}
		}
		return set
	}
	lowestAccept := func(set []*atn.State) int {
		best := -1
		for _, s := range set {
			if r, ok := accept[s]; ok && (best < 0 || r < best) {
				best = r
			}
		}
		return best
	}

	var runes []rune
	var offs []int
	for off, r := range input {
		runes = append(runes, r)
		offs = append(offs, off)
	}
	var toks []token.Token
	pos, line, col := 0, 1, 1
	for pos < len(runes) {
		gen++
		set := closure(nil, lm.Start)
		bestEnd, bestRule := -1, -1
		for end := pos; len(set) > 0; end++ {
			if r := lowestAccept(set); r >= 0 {
				bestEnd, bestRule = end, r
			}
			if end == len(runes) {
				break
			}
			gen++
			var next []*atn.State
			for _, s := range set {
				for _, tr := range s.Trans {
					if tr.Kind != atn.TEpsilon && tr.MatchesRune(runes[end]) {
						next = closure(next, tr.To)
					}
				}
			}
			set = next
		}
		if bestRule < 0 {
			return toks, &runtime.LexError{Pos: token.Pos{Line: line, Col: col}, Rune: runes[pos]}
		}
		tok := token.Token{Text: string(runes[pos:bestEnd]), Pos: token.Pos{Line: line, Col: col}, Off: offs[pos]}
		for _, r := range runes[pos:bestEnd] {
			if r == '\n' {
				line, col = line+1, 1
			} else {
				col++
			}
		}
		pos = bestEnd
		if info := lm.Rules[bestRule]; !info.Skip {
			tok.Type, tok.Channel = info.Type, info.Channel
			toks = append(toks, tok)
		}
	}
	return append(toks, token.Token{Type: token.EOF, Pos: token.Pos{Line: line, Col: col}, Off: len(input)}), nil
}
