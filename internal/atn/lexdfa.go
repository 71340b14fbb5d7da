package atn

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// maxLexDFAStates bounds lexer subset construction. Real grammars stay
// far below it (the largest benchmark lexer has a few hundred states),
// so hitting the cap means a pathological lexer; it fails closed with a
// *LexDFAError instead of building a huge table.
const maxLexDFAStates = 8192

// LexDFAError reports a lexer whose determinization exceeds the state
// cap. A machine's DFA is built once, so every lexer over it reports
// the same error value.
type LexDFAError struct {
	Limit int // the state cap that was exceeded
}

func (e *LexDFAError) Error() string {
	return fmt.Sprintf("lexer DFA exceeds %d states", e.Limit)
}

// LexDFA is the determinization of a LexMachine: subset construction
// over an alphabet partitioned into equivalence classes, yielding dense
// tables that both the runtime lexer and generated parsers walk with
// one array index per character.
type LexDFA struct {
	NumClasses int
	// ASCIIClass maps runes < 128 straight to their class.
	ASCIIClass [128]uint16
	// ClassLo/ClassID describe classes for runes >= 128 as sorted
	// half-open intervals: the class of r is ClassID[i] for the last i
	// with ClassLo[i] <= r.
	ClassLo []int32
	ClassID []uint16
	// Next is the dense transition table: Next[state*NumClasses+class],
	// -1 for dead ends. Accept[state] is the lowest-index accepting
	// rule (a position in LexMachine.Rules), -1 for none. State 0 is the
	// start state.
	Next   []int32
	Accept []int32
}

// Class maps a rune to its alphabet equivalence class: a direct index
// for ASCII, a binary search over interval starts above it.
func (d *LexDFA) Class(r rune) int {
	if r < 128 {
		return int(d.ASCIIClass[r])
	}
	lo, hi := 0, len(d.ClassLo)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.ClassLo[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int(d.ClassID[lo-1])
}

// DFA returns the machine's lexer DFA, building it on first use; the
// result (or the *LexDFAError of a machine over the state cap) is
// shared by every caller. A nil machine (no lexer rules) yields a
// single dead state that rejects any input.
func (lm *LexMachine) DFA() (*LexDFA, error) {
	if lm == nil {
		return &LexDFA{NumClasses: 1, Next: []int32{-1}, Accept: []int32{-1}}, nil
	}
	lm.dfaOnce.Do(func() { lm.dfa, lm.dfaErr = lm.buildDFA() })
	return lm.dfa, lm.dfaErr
}

func (lm *LexMachine) buildDFA() (*LexDFA, error) {
	// Collect every non-epsilon character transition; state s owns
	// trans[first[s]:first[s+1]]. Their range boundaries partition the
	// alphabet so that within one interval all transitions agree
	// (wildcards and negated sets agree everywhere their underlying
	// ranges do).
	var trans []*Trans
	first := make([]int32, len(lm.States)+1)
	for i, s := range lm.States {
		first[i] = int32(len(trans))
		for _, tr := range s.Trans {
			if tr.Kind != TEpsilon {
				trans = append(trans, tr)
			}
		}
	}
	first[len(lm.States)] = int32(len(trans))

	const maxRune = 0x10FFFF
	starts := []rune{0}
	for _, tr := range trans {
		switch tr.Kind {
		case TChar:
			starts = append(starts, tr.Lo, tr.Hi+1)
		case TCharSet:
			for _, rr := range tr.CharRanges {
				starts = append(starts, rr.Lo, rr.Hi+1)
			}
		}
	}
	starts = slices.DeleteFunc(starts, func(r rune) bool { return r < 0 || r > maxRune })
	slices.Sort(starts)
	starts = slices.Compact(starts)

	// An interval's signature is the list of transitions matching it;
	// intervals with equal signatures form one class, numbered in order
	// of first appearance. Each transition's class list is then
	// computed once for the subset construction below.
	sigs := make([][]int32, len(starts))
	for ti, tr := range trans {
		for i, lo := range starts {
			if tr.MatchesRune(lo) {
				sigs[i] = append(sigs[i], int32(ti))
			}
		}
	}
	classOf := make(map[string]uint16)
	intervalClass := make([]uint16, len(starts))
	var key []byte
	for i, sig := range sigs {
		key = appendKey(key[:0], sig)
		cls, ok := classOf[string(key)]
		if !ok {
			cls = uint16(len(classOf))
			classOf[string(key)] = cls
		}
		intervalClass[i] = cls
	}
	d := &LexDFA{NumClasses: len(classOf)}
	transClasses := make([][]uint16, len(trans))
	for i, sig := range sigs {
		for _, ti := range sig {
			transClasses[ti] = append(transClasses[ti], intervalClass[i])
		}
	}
	for ti, cs := range transClasses {
		slices.Sort(cs)
		transClasses[ti] = slices.Compact(cs)
	}

	// Fill the ASCII fast path and the interval table for the rest.
	cls := func(r rune) uint16 {
		i := sort.Search(len(starts), func(i int) bool { return starts[i] > r }) - 1
		return intervalClass[i]
	}
	for r := rune(0); r < 128; r++ {
		d.ASCIIClass[r] = cls(r)
	}
	for i, lo := range starts {
		end := rune(maxRune)
		if i+1 < len(starts) {
			end = starts[i+1] - 1
		}
		if end < 128 {
			continue
		}
		d.ClassLo = append(d.ClassLo, lo)
		d.ClassID = append(d.ClassID, intervalClass[i])
	}
	if len(d.ClassLo) == 0 { // all-ASCII alphabet: one catch-all interval
		d.ClassLo = []int32{128}
		d.ClassID = []uint16{cls(128)}
	}

	acceptOf := make([]int32, len(lm.States))
	for i := range acceptOf {
		acceptOf[i] = -1
	}
	for i, info := range lm.Rules {
		acceptOf[info.Stop.ID] = int32(i)
	}

	// ε-closures, computed on demand: only targets of character
	// transitions (and the start state) are ever expanded.
	closures := make([][]int32, len(lm.States))
	var stack []*State
	onStack := make([]int32, len(lm.States))
	closure := func(s *State) []int32 {
		if c := closures[s.ID]; c != nil {
			return c
		}
		var out []int32
		stack = append(stack[:0], s)
		mark := int32(s.ID + 1)
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if onStack[top.ID] == mark {
				continue
			}
			onStack[top.ID] = mark
			out = append(out, int32(top.ID))
			for _, tr := range top.Trans {
				if tr.Kind == TEpsilon {
					stack = append(stack, tr.To)
				}
			}
		}
		closures[s.ID] = out
		return out
	}

	// Subset construction over the class alphabet. A DFA state is a
	// sorted set of NFA state ids, interned on its decimal rendering.
	var sets [][]int32
	index := make(map[string]int32)
	intern := func(ids []int32) int32 {
		slices.Sort(ids)
		key = appendKey(key[:0], ids)
		if id, ok := index[string(key)]; ok {
			return id
		}
		id := int32(len(sets))
		index[string(key)] = id
		sets = append(sets, slices.Clone(ids))
		return id
	}
	intern(slices.Clone(closure(lm.Start)))

	byClass := make([][]*State, d.NumClasses) // move targets per class
	seen := make([]int32, len(lm.States))
	var move []int32
	gen := int32(0)
	for si := 0; si < len(sets); si++ {
		best := int32(-1)
		for _, id := range sets[si] {
			if r := acceptOf[id]; r >= 0 && (best < 0 || r < best) {
				best = r
			}
			for ti := first[id]; ti < first[id+1]; ti++ {
				for _, c := range transClasses[ti] {
					byClass[c] = append(byClass[c], trans[ti].To)
				}
			}
		}
		d.Accept = append(d.Accept, best)
		for c, targets := range byClass {
			if len(targets) == 0 {
				d.Next = append(d.Next, -1)
				continue
			}
			gen++
			move = move[:0]
			for _, t := range targets {
				for _, id := range closure(t) {
					if seen[id] != gen {
						seen[id] = gen
						move = append(move, id)
					}
				}
			}
			byClass[c] = targets[:0]
			d.Next = append(d.Next, intern(move))
			if len(sets) > maxLexDFAStates {
				return nil, &LexDFAError{Limit: maxLexDFAStates}
			}
		}
	}
	return d, nil
}

// appendKey renders an id list as a map key.
func appendKey(key []byte, ids []int32) []byte {
	for _, id := range ids {
		key = strconv.AppendInt(key, int64(id), 10)
		key = append(key, '.')
	}
	return key
}
