package interp

import (
	"fmt"

	"llstar/internal/atn"
	"llstar/internal/dfa"
	"llstar/internal/grammar"
	"llstar/internal/llk"
	"llstar/internal/runtime"
)

// predict chooses an alternative at a decision point: it simulates the
// lookahead DFA over the token stream, evaluating predicate edges in
// precedence order when the DFA says lookahead alone cannot decide, and
// speculating (with memoization) for syntactic/auto predicates.
func (p *Parser) predict(dec *atn.Decision, fr *frame) (int, error) {
	d := p.dfas[dec.ID]
	if p.spec == 0 {
		// New top-level decision: stale speculative failures from prior
		// decisions must not leak into this one's error reporting.
		p.deepestIdx = -1
		p.deepestErr = nil
	}

	// Lookahead-depth measurement costs a watermark reset per decision
	// event; skip it entirely when nothing observes the parse.
	var startIdx, savedHigh int
	if p.probe != nil {
		startIdx = p.stream.Index()
		savedHigh = p.stream.WatermarkReset()
		p.probe.BeginPredict()
	}

	backtracked := false
	var alt int
	var err error
	if p.approx != nil {
		alt, err = p.approxPredict(dec, fr, &backtracked)
	} else {
		alt, err = p.simulate(d, dec, fr, &backtracked)
	}

	if p.probe != nil {
		k := 0
		if wm := p.stream.Watermark(); wm >= startIdx {
			k = wm - startIdx + 1
		}
		p.stream.ExtendWatermark(savedHigh)
		p.probe.Predict(runtime.Prediction{
			Decision: dec.ID, Rule: fr.rule.Name, Alt: alt, K: k, Depth: p.spec,
			Backtracked: backtracked, Failed: err != nil,
		})
	}
	return alt, err
}

func (p *Parser) simulate(d *dfa.DFA, dec *atn.Decision, fr *frame, backtracked *bool) (int, error) {
	s := d.Start
	i := 0
	if p.probe != nil {
		p.probe.DFAState(dec.ID, s.ID, false)
	}
	for {
		if s.AcceptAlt > 0 {
			return s.AcceptAlt, nil
		}
		var next *dfa.State
		if len(s.Edges) > 0 || s.Default != nil {
			next = s.Target(p.stream.LA(i + 1))
		}
		if next != nil {
			i++
			s = next
			if p.probe != nil {
				p.probe.DFAState(dec.ID, s.ID, true)
			}
			continue
		}
		if len(s.PredEdges) > 0 {
			return p.resolvePreds(s.PredEdges, dec, fr, backtracked)
		}
		// Report the error at the token that drove the DFA into the
		// error state (Section 4.4), not where prediction started.
		bad := p.stream.LT(i + 1)
		se := p.syntaxErr(bad, fr.rule.Name, fmt.Sprintf("no viable alternative for %s", dec.Desc))
		p.noteFailure(se)
		return 0, se
	}
}

// resolvePreds evaluates predicate edges in precedence order.
func (p *Parser) resolvePreds(edges []dfa.PredEdge, dec *atn.Decision, fr *frame, backtracked *bool) (int, error) {
	for _, e := range edges {
		switch e.Kind {
		case dfa.PredTrue:
			return e.Alt, nil
		case dfa.PredSem:
			ok, err := p.evalSemPred(e.Sem.Text, fr)
			if err != nil {
				return 0, err
			}
			if ok {
				return e.Alt, nil
			}
		case dfa.PredSyn:
			*backtracked = true
			if p.specSynPred(e.SynID, dec, fr) {
				return e.Alt, nil
			}
		case dfa.PredAuto:
			*backtracked = true
			if p.specAlt(dec, e.Alt, fr) {
				return e.Alt, nil
			}
		}
	}
	// Everything failed: report at the deepest point reached by a failed
	// speculative parse if it is beyond the current token (Section 4.4).
	if p.deepestErr != nil && p.deepestIdx >= p.stream.Index() {
		return 0, p.deepestErr
	}
	se := p.syntaxErr(p.stream.LT(1), fr.rule.Name, fmt.Sprintf("no viable alternative for %s", dec.Desc))
	return 0, se
}

// approxPredict is the v2-mode decision procedure: filter alternatives
// through the linear-approximate LL(k) tables; if more than one survives,
// speculate the survivors in order (ordered backtracking).
func (p *Parser) approxPredict(dec *atn.Decision, fr *frame, backtracked *bool) (int, error) {
	t := p.approx[dec.ID]
	if t == nil {
		t = llk.Compute(p.m, dec, p.opts.ApproxK)
		p.approx[dec.ID] = t
	}
	alt, viable, _ := t.Predict(p.stream)
	if alt > 0 {
		return alt, nil
	}
	if len(viable) == 0 {
		se := p.syntaxErr(p.stream.LT(1), fr.rule.Name,
			fmt.Sprintf("no viable alternative for %s (approximate LL(%d))", dec.Desc, t.K))
		p.noteFailure(se)
		return 0, se
	}
	// Multiple candidates survive the approximation: speculate in order,
	// taking exit branches as defaults rather than speculating them.
	for i, a := range viable {
		if dec.HasExitAlt() && a == dec.NAlts {
			return a, nil
		}
		if i == len(viable)-1 {
			return a, nil // last candidate: parse it for real
		}
		*backtracked = true
		if p.specAlt(dec, a, fr) {
			return a, nil
		}
	}
	return viable[len(viable)-1], nil
}

// specAlt speculatively matches alternative alt's body (PEG-mode
// backtracking): parse from its left edge to the decision's join point
// with mutators off, then rewind.
func (p *Parser) specAlt(dec *atn.Decision, alt int, fr *frame) bool {
	return p.speculate(dec.AltStart[alt-1], dec.End, dec.Rule, fr.arg,
		runtime.Speculation{Decision: dec.ID, SynPred: -1, Alt: alt})
}

// specSynPred speculatively matches an explicit syntactic predicate
// fragment (α)=>. dec is the decision whose prediction launched the
// speculation.
func (p *Parser) specSynPred(id int, dec *atn.Decision, fr *frame) bool {
	def := p.m.SynPreds[id]
	return p.speculate(def.Start, def.Stop, def.Rule, fr.arg,
		runtime.Speculation{Decision: dec.ID, SynPred: id})
}

// speculate walks from..to inside rule one speculation level deeper,
// rewinds, and reports whether the fragment matched; ev identifies the
// speculation to the probe.
func (p *Parser) speculate(from, to *atn.State, rule *grammar.Rule, arg int, ev runtime.Speculation) bool {
	start := p.stream.Index()
	if p.probe != nil {
		p.probe.BeginSpeculate()
	}
	p.spec++
	err := p.walk(from, to, &frame{rule: rule, arg: arg})
	p.spec--
	consumed := p.stream.Index() - start
	p.stream.Seek(start)
	if p.probe != nil {
		ev.Rule, ev.Tokens, ev.Depth, ev.OK = rule.Name, consumed, p.spec+1, err == nil
		p.probe.Speculate(ev)
	}
	return err == nil
}
