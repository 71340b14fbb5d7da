package atn

import (
	"fmt"
	"strings"
	"sync"

	"llstar/internal/grammar"
	"llstar/internal/token"
)

// LexMachine is the character-level ATN for a grammar's lexer rules.
// Fragments and cross-rule references are inlined, so the machine is a
// plain NFA with longest-match / first-rule-wins semantics; DFA
// determinizes it for the lexers that scan it.
type LexMachine struct {
	States []*State
	// Start has one epsilon edge per non-fragment lexer rule, in
	// declaration order (the tie-break priority).
	Start *State
	// Rules describes each non-fragment lexer rule.
	Rules []LexRuleInfo

	// The determinization (lexdfa.go), built once on first use.
	dfaOnce sync.Once
	dfa     *LexDFA
	dfaErr  error
}

// LexRuleInfo describes one non-fragment lexer rule.
type LexRuleInfo struct {
	Name    string
	Type    token.Type
	Skip    bool // rule text carried a skip() action
	Channel int  // nonzero if routed off the default channel
	Stop    *State
}

type lexBuilder struct {
	g      *grammar.Grammar
	lm     *LexMachine
	inline []string // inlining stack for cycle detection
}

func buildLexMachine(g *grammar.Grammar) (*LexMachine, error) {
	lm := &LexMachine{}
	b := &lexBuilder{g: g, lm: lm}
	lm.Start = b.newState("<lexer>")

	for _, r := range g.LexRules {
		if r.Fragment {
			continue
		}
		info := LexRuleInfo{
			Name: r.Name,
			Type: g.Vocab.Lookup(r.Name),
		}
		start := b.newState(r.Name)
		stop := b.newState(r.Name)
		stop.Stop = true
		lm.Start.AddTrans(&Trans{Kind: TEpsilon, To: start})

		skip, channel, err := b.buildLexRuleBody(r, start, stop)
		if err != nil {
			return nil, err
		}
		info.Skip = skip
		info.Channel = channel
		info.Stop = stop
		lm.Rules = append(lm.Rules, info)
	}

	// Implicit literal rules: every 'literal' referenced by a parser rule
	// lexes as an exact-match rule with higher priority than named rules
	// (so 'int' beats ID), mirroring ANTLR's treatment of literals.
	literals := g.Vocab.Literals()
	if len(literals) > 0 {
		// Longer literals first so '<=' beats '<' on longest-match ties
		// at equal length... longest match already wins; ordering only
		// breaks equal-length ties, so lexicographic order is fine.
		pre := make([]LexRuleInfo, 0, len(literals))
		preStates := make([]*State, 0, len(literals))
		for _, lit := range literals {
			start := b.newState("'" + lit + "'")
			stop := b.newState("'" + lit + "'")
			stop.Stop = true
			cur := start
			for _, r := range lit {
				next := b.newState("'" + lit + "'")
				cur.AddTrans(&Trans{Kind: TChar, Lo: r, Hi: r, To: next})
				cur = next
			}
			cur.AddTrans(&Trans{Kind: TEpsilon, To: stop})
			pre = append(pre, LexRuleInfo{Name: "'" + lit + "'", Type: g.Vocab.Literal(lit), Stop: stop})
			preStates = append(preStates, start)
		}
		// Literals take priority: prepend to Rules.
		lm.Rules = append(pre, lm.Rules...)
		// Fresh start edges: literals first.
		oldEdges := lm.Start.Trans
		lm.Start.Trans = nil
		for _, s := range preStates {
			lm.Start.AddTrans(&Trans{Kind: TEpsilon, To: s})
		}
		lm.Start.Trans = append(lm.Start.Trans, oldEdges...)
	}
	return lm, nil
}

func (b *lexBuilder) newState(ruleName string) *State {
	s := &State{ID: len(b.lm.States), RuleIndex: -1, RuleName: ruleName, DecisionID: -1}
	b.lm.States = append(b.lm.States, s)
	return s
}

// buildLexRuleBody threads a lexer rule's alternatives between start and
// stop, returning whether the rule skips its matches and its channel.
func (b *lexBuilder) buildLexRuleBody(r *grammar.Rule, start, stop *State) (skip bool, channel int, err error) {
	for _, alt := range r.Alts {
		elems := alt.Elems
		// A trailing action may carry a lexer command.
		if len(elems) > 0 {
			if act, ok := elems[len(elems)-1].(*grammar.Action); ok {
				cmd := strings.ReplaceAll(act.Text, " ", "")
				switch {
				case strings.Contains(cmd, "skip()"), cmd == "skip", cmd == "skip;":
					skip = true
				case strings.Contains(cmd, "channel(HIDDEN)"), strings.Contains(cmd, "hidden()"):
					channel = 1
				}
				elems = elems[:len(elems)-1]
			}
		}
		altStart := b.newState(r.Name)
		start.AddTrans(&Trans{Kind: TEpsilon, To: altStart})
		end, err := b.lexChain(r, elems, altStart)
		if err != nil {
			return false, 0, err
		}
		end.AddTrans(&Trans{Kind: TEpsilon, To: stop})
	}
	return skip, channel, nil
}

func (b *lexBuilder) lexChain(r *grammar.Rule, elems []grammar.Element, from *State) (*State, error) {
	cur := from
	for _, e := range elems {
		next, err := b.lexElement(r, e, cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func (b *lexBuilder) lexElement(r *grammar.Rule, e grammar.Element, from *State) (*State, error) {
	switch e := e.(type) {
	case *grammar.CharLit:
		to := b.newState(r.Name)
		from.AddTrans(&Trans{Kind: TChar, Lo: e.R, Hi: e.R, To: to})
		return to, nil

	case *grammar.StringLit:
		cur := from
		for _, ch := range e.S {
			to := b.newState(r.Name)
			cur.AddTrans(&Trans{Kind: TChar, Lo: ch, Hi: ch, To: to})
			cur = to
		}
		return cur, nil

	case *grammar.CharSet:
		to := b.newState(r.Name)
		from.AddTrans(&Trans{Kind: TCharSet, CharRanges: e.Ranges, Negated: e.Negated, To: to})
		return to, nil

	case *grammar.Wildcard:
		to := b.newState(r.Name)
		from.AddTrans(&Trans{Kind: TWildcard, To: to})
		return to, nil

	case *grammar.RuleRef:
		// Inline the referenced lexer rule (fragment or not).
		target := b.g.Rule(e.Name)
		if target == nil || !target.IsLexer {
			return nil, fmt.Errorf("lexer rule %s references unknown lexer rule %s", r.Name, e.Name)
		}
		for _, onStack := range b.inline {
			if onStack == e.Name {
				return nil, fmt.Errorf("lexer rule %s is recursive (via %s); recursive lexer rules are not supported", e.Name, r.Name)
			}
		}
		b.inline = append(b.inline, e.Name)
		defer func() { b.inline = b.inline[:len(b.inline)-1] }()
		blk := &grammar.Block{Alts: target.Alts, Op: grammar.OpNone}
		return b.lexBlock(r, blk, from)

	case *grammar.Action:
		// Mid-rule lexer actions are ignored by the engine.
		return from, nil

	case *grammar.SemPred:
		return nil, fmt.Errorf("lexer rule %s: semantic predicates are not supported in lexer rules", r.Name)

	case *grammar.Block:
		return b.lexBlock(r, e, from)
	}
	return nil, fmt.Errorf("lexer rule %s: unsupported element %T", r.Name, e)
}

func (b *lexBuilder) lexBlock(r *grammar.Rule, blk *grammar.Block, from *State) (*State, error) {
	switch blk.Op {
	case grammar.OpPlus:
		once := &grammar.Block{Alts: blk.Alts, Op: grammar.OpNone}
		star := &grammar.Block{Alts: blk.Alts, Op: grammar.OpStar}
		mid, err := b.lexBlock(r, once, from)
		if err != nil {
			return nil, err
		}
		return b.lexBlock(r, star, mid)

	case grammar.OpNone:
		if len(blk.Alts) == 1 {
			return b.lexChain(r, blk.Alts[0].Elems, from)
		}
		end := b.newState(r.Name)
		for _, alt := range blk.Alts {
			altStart := b.newState(r.Name)
			from.AddTrans(&Trans{Kind: TEpsilon, To: altStart})
			last, err := b.lexChain(r, alt.Elems, altStart)
			if err != nil {
				return nil, err
			}
			last.AddTrans(&Trans{Kind: TEpsilon, To: end})
		}
		return end, nil

	case grammar.OpOptional:
		end, err := b.lexBlock(r, &grammar.Block{Alts: blk.Alts, Op: grammar.OpNone}, from)
		if err != nil {
			return nil, err
		}
		from.AddTrans(&Trans{Kind: TEpsilon, To: end})
		return end, nil

	case grammar.OpStar:
		// hub --alts--> hub, hub --ε--> end
		hub := b.newState(r.Name)
		from.AddTrans(&Trans{Kind: TEpsilon, To: hub})
		for _, alt := range blk.Alts {
			altStart := b.newState(r.Name)
			hub.AddTrans(&Trans{Kind: TEpsilon, To: altStart})
			last, err := b.lexChain(r, alt.Elems, altStart)
			if err != nil {
				return nil, err
			}
			last.AddTrans(&Trans{Kind: TEpsilon, To: hub})
		}
		end := b.newState(r.Name)
		hub.AddTrans(&Trans{Kind: TEpsilon, To: end})
		return end, nil
	}
	return nil, fmt.Errorf("lexer rule %s: unknown block op", r.Name)
}
