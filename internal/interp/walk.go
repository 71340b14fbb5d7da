package interp

import (
	"fmt"

	"llstar/internal/atn"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// walk executes the ATN from cur until reaching stop. Decision states
// dispatch through predict; everything else follows the single outgoing
// transition. Non-decision states in a well-formed ATN have at most one
// transition; hitting anything else is an internal error.
func (p *Parser) walk(cur, stop *atn.State, fr *frame) error {
	for cur != stop {
		if cur.DecisionID >= 0 {
			dec := p.m.Decision(cur.DecisionID)
			alt, err := p.predict(dec, fr)
			if err != nil {
				alt, err = p.recoverPredict(dec, fr, err)
				if err != nil {
					return err
				}
			}
			cur = dec.AltStart[alt-1]
			continue
		}
		if cur.Stop {
			// Reached a rule stop that isn't this walk's stop target:
			// only possible for speculation walks that end at a loop-back
			// decision; treat as completion.
			return nil
		}
		if len(cur.Trans) == 0 {
			return fmt.Errorf("interp: internal error: stuck at state %s", cur)
		}
		if len(cur.Trans) != 1 {
			return fmt.Errorf("interp: internal error: non-decision state %s has %d transitions", cur, len(cur.Trans))
		}
		tr := cur.Trans[0]
		switch tr.Kind {
		case atn.TEpsilon:
			cur = tr.To

		case atn.TAtom, atn.TSet, atn.TWildcard:
			t := p.stream.LT(1)
			if !tr.Matches(t.Type) {
				merr := p.matchError(tr, t, fr)
				if p.spec > 0 || !p.opts.Recover {
					return merr
				}
				if err := p.report(merr.(*runtime.SyntaxError)); err != nil {
					return err
				}
				// Single-token deletion: drop the offending token if the
				// one behind it matches; otherwise single-token
				// insertion: proceed as if the expected token were there.
				if t.Type != token.EOF && tr.Matches(p.stream.LA(2)) {
					p.stream.Consume()
					p.consume(p.stream.LT(1), fr)
				}
				cur = tr.To
				continue
			}
			p.consume(t, fr)
			cur = tr.To

		case atn.TRule:
			arg, err := runtimeEvalArg(tr.ArgText, fr.arg)
			if err != nil {
				return fmt.Errorf("interp: rule %s: %v", fr.rule.Name, err)
			}
			if err := p.parseRule(tr.RuleIndex, arg, fr.build); err != nil {
				return err
			}
			cur = tr.Follow

		case atn.TPred:
			if tr.SynPredID >= 0 {
				// Explicit syntactic predicates only drive prediction;
				// by the time the alternative executes, it has been
				// chosen, so the gate is a no-op here.
				cur = tr.To
				continue
			}
			ok, err := p.evalSemPred(tr.Pred.Text, fr)
			if err != nil {
				return err
			}
			if !ok {
				se := p.syntaxErr(p.stream.LT(1), fr.rule.Name,
					fmt.Sprintf("failed predicate {%s}?", tr.Pred.Text))
				p.noteFailure(se)
				return se
			}
			cur = tr.To

		case atn.TAction:
			if p.spec == 0 || tr.Act.AlwaysExec {
				p.ctx.Speculating = p.spec > 0
				p.ctx.Arg = fr.arg
				p.opts.Hooks.RunAction(tr.Act.Text, &p.ctx)
			}
			cur = tr.To

		default:
			return fmt.Errorf("interp: internal error: unexpected transition kind %d", tr.Kind)
		}
	}
	return nil
}

// recoverPredict handles a failed prediction: in Recover mode it deletes
// tokens (panic-mode resync) until some alternative predicts, or takes
// the exit branch of loops/optionals at EOF.
func (p *Parser) recoverPredict(dec *atn.Decision, fr *frame, err error) (int, error) {
	if p.spec > 0 || !p.opts.Recover {
		return 0, err
	}
	se, ok := err.(*runtime.SyntaxError)
	if !ok {
		return 0, err
	}
	if rerr := p.report(se); rerr != nil {
		return 0, rerr
	}
	deleted := 0
	for p.stream.LA(1) != token.EOF {
		p.stream.Consume()
		deleted++
		if alt, err2 := p.predict(dec, fr); err2 == nil {
			p.noteResync(dec, fr, deleted, true)
			return alt, nil
		}
	}
	if dec.HasExitAlt() {
		p.noteResync(dec, fr, deleted, true)
		return dec.NAlts, nil
	}
	p.noteResync(dec, fr, deleted, false)
	return 0, se
}

// noteResync records one panic-mode resynchronization (tokens deleted
// until a viable alternative, or until EOF on failure).
func (p *Parser) noteResync(dec *atn.Decision, fr *frame, deleted int, ok bool) {
	if p.probe != nil {
		p.probe.Resync(dec.ID, fr.rule.Name, deleted, ok)
	}
}

// consume advances past t, attaching it to the parse tree when building.
// ctx.LastToken points at a stable copy of t, the leaf's token, when a
// leaf is built or a predicate or action can read it.
func (p *Parser) consume(t token.Token, fr *frame) {
	p.stream.Consume()
	switch {
	case p.spec == 0 && fr.build:
		p.ctx.LastToken = p.tree.leaf(t).Token
	case p.hooked:
		p.ctx.LastToken = p.tree.token(t)
	}
	if p.spec == 0 {
		if p.probe != nil {
			p.probe.Token(t)
		}
		// Committed past this token: in windowed mode release the
		// retired prefix and its now-unreachable memo verdicts.
		if newBase := p.stream.TrimTo(p.stream.Index()); newBase >= 0 && p.memo != nil {
			p.memo.PruneBelow(newBase)
		}
	}
}

// matchError builds the "expecting X" error for a failed terminal match.
func (p *Parser) matchError(tr *atn.Trans, at token.Token, fr *frame) error {
	var want string
	vocab := p.res.Grammar.Vocab
	switch tr.Kind {
	case atn.TAtom:
		want = vocab.Name(tr.Sym)
	case atn.TSet:
		want = tr.Set.Format(vocab)
		if tr.Negated {
			want = "~" + want
		}
	default:
		want = "any token"
	}
	se := p.syntaxErr(at, fr.rule.Name, fmt.Sprintf("expecting %s", want))
	p.noteFailure(se)
	return se
}

// evalSemPred evaluates a semantic predicate in the current context.
func (p *Parser) evalSemPred(text string, fr *frame) (bool, error) {
	p.ctx.Speculating = p.spec > 0
	p.ctx.Arg = fr.arg
	ok, err := p.opts.Hooks.EvalPred(text, &p.ctx)
	if p.probe != nil {
		p.probe.SemPred(fr.rule.Name, text, p.spec, ok, err)
	}
	return ok, err
}
