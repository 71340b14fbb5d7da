// Package interp executes parses over an analyzed grammar exactly the way
// an ANTLR-generated LL(*) parser would: recursive descent over the ATN,
// with each decision driven by its lookahead DFA, failing over to
// speculation (syntactic predicates / PEG-mode backtracking) where the
// DFA says so, memoizing speculative rule invocations, gating mutators
// during speculation, and reporting errors at the offending token.
package interp

import (
	"fmt"

	"llstar/internal/atn"
	"llstar/internal/core"
	"llstar/internal/dfa"
	"llstar/internal/grammar"
	"llstar/internal/lexrt"
	"llstar/internal/llk"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// Options configure a parser.
type Options struct {
	// Memoize enables the packrat cache for speculative parses. Nil means
	// "use the grammar's memoize option".
	Memoize *bool
	// BuildTree enables parse-tree construction.
	BuildTree bool
	// Hooks binds semantic predicates and actions.
	Hooks runtime.Hooks
	// State is the initial user state (the paper's S).
	State any
	// ApproxK, when > 0, switches predictions to ANTLR-v2-style linear
	// approximate LL(k) tables of that depth instead of LL(*) lookahead
	// DFA; decisions the approximation cannot make speculate alternatives
	// in order. Used by the Section 6.2 v2-vs-v3 comparison.
	ApproxK int
	// Recover enables error recovery: failed token matches try
	// single-token deletion then insertion, failed predictions resync by
	// deleting tokens; the parse continues and Errors() collects every
	// syntax error (up to MaxErrors).
	Recover bool
	// MaxErrors caps collected errors in Recover mode (default 10).
	MaxErrors int
	// Probe, if set, observes the parse loop (see runtime.Probe); join
	// several consumers with runtime.JoinProbes. Nil costs one pointer
	// check per instrumentation site.
	Probe runtime.Probe
	// Window enables sliding-window token retention: the stream drops
	// retired tokens (and the memo table their verdicts) as the parse
	// commits past them, bounding memory by grammar depth + lookahead
	// instead of input length. Requires BuildTree to be off.
	Window bool
}

// Parser interprets an analyzed grammar. A Parser is reusable: every
// ParseString/ParseTokens call resets the per-parse state (token stream,
// memo table, speculation depth, recovered errors) before running, so
// one instance can serve many sequential parses — lazily built
// approximate-LL(k) tables carry over. It is NOT safe for concurrent
// use; the analyzed core.Result it reads is immutable, so any number of
// Parsers may share it across goroutines.
type Parser struct {
	res  *core.Result
	m    *atn.Machine
	dfas []*dfa.DFA
	opts Options

	stream *runtime.TokenStream
	memo   *runtime.MemoTable
	spec   int // speculation nesting depth
	ctx    runtime.Context

	// deepest failure seen during speculation, for Section 4.4 reporting
	deepestIdx int
	deepestErr *runtime.SyntaxError

	// approx holds lazily-built v2-style lookahead tables per decision
	// when Options.ApproxK > 0.
	approx []*llk.Tables

	// errors collects recovered syntax errors (Recover mode).
	errors []*runtime.SyntaxError

	// probe is the one instrumentation point of the parse loop (nil
	// when nothing observes the parse).
	probe runtime.Probe
}

// New returns a parser for an analyzed grammar.
func New(res *core.Result, opts Options) *Parser {
	p := &Parser{res: res, m: res.Machine, dfas: res.DFAs, opts: opts, probe: opts.Probe}
	if opts.ApproxK > 0 {
		p.approx = make([]*llk.Tables, len(res.DFAs))
	}
	return p
}

// SetProbe replaces the parser's probe (nil removes it). The parse
// service attaches a request's flight recorder to a pooled parser this
// way. Call only between parses.
func (p *Parser) SetProbe(probe runtime.Probe) { p.probe = probe }

// NewStats returns an empty profile for res's decisions, with the ones
// that can backtrack marked; install its Probe to fill it.
func NewStats(res *core.Result) *runtime.ParseStats {
	ps := runtime.NewParseStats(len(res.DFAs))
	for _, di := range res.Decisions {
		if di.Class == core.ClassBacktrack {
			ps.Decisions[di.Decision.ID].CanBacktrack = true
		}
	}
	return ps
}

// Throttles names each decision's static class ("fixed", "cyclic",
// "backtrack"), by decision ID: the throttle label of runtime trace
// events and metrics.
func Throttles(res *core.Result) []string {
	names := make([]string, len(res.DFAs))
	for _, di := range res.Decisions {
		names[di.Decision.ID] = di.Class.String()
	}
	return names
}

// Errors returns the syntax errors recovered during the last parse
// (Recover mode; empty otherwise).
func (p *Parser) Errors() []*runtime.SyntaxError { return p.errors }

// maxErrors returns the recovery error budget.
func (p *Parser) maxErrors() int {
	if p.opts.MaxErrors > 0 {
		return p.opts.MaxErrors
	}
	return 10
}

// report records a recovered error; it returns non-nil when recovery must
// stop (not recovering, speculating, or over budget).
func (p *Parser) report(se *runtime.SyntaxError) error {
	if p.spec > 0 || !p.opts.Recover {
		return se
	}
	p.errors = append(p.errors, se)
	if p.probe != nil {
		p.probe.SyntaxError(se)
	}
	if len(p.errors) >= p.maxErrors() {
		return se
	}
	return nil
}

// memoEnabled reports whether memoization applies for this parse.
func (p *Parser) memoEnabled() bool {
	if p.opts.Memoize != nil {
		return *p.opts.Memoize
	}
	return p.res.Grammar.Options.Memoize
}

// ParseString lexes input with the grammar's lexer rules and parses it
// starting at startRule, requiring all input to be consumed.
func (p *Parser) ParseString(startRule, input string) (*Node, error) {
	if p.m.Lex == nil {
		return nil, fmt.Errorf("interp: grammar %s has no lexer rules; use ParseTokens", p.res.Grammar.Name)
	}
	lx := lexrt.New(p.m.Lex, input)
	return p.ParseTokens(startRule, runtime.NewTokenStream(lx))
}

// ParseTokens parses a token stream starting at startRule, requiring all
// input to be consumed.
func (p *Parser) ParseTokens(startRule string, stream *runtime.TokenStream) (*Node, error) {
	idx := p.m.RuleIndexByName(startRule)
	if idx < 0 {
		return nil, fmt.Errorf("interp: no parser rule %s", startRule)
	}
	p.stream = stream
	p.memo = nil
	if p.memoEnabled() {
		p.memo = runtime.NewMemoTable(len(p.res.Grammar.Rules))
	}
	if p.opts.Window && !p.opts.BuildTree {
		stream.EnableWindow()
	}
	p.spec = 0
	p.deepestIdx = -1
	p.deepestErr = nil
	p.errors = nil
	p.ctx = runtime.Context{Stream: stream, State: p.opts.State}
	if p.probe != nil {
		p.probe.BeginParse(false)
	}

	var holder *Node
	if p.opts.BuildTree {
		holder = &Node{}
	}
	err := p.parseRule(idx, 0, holder)
	if ferr := lexerFailure(stream); ferr != nil {
		err = ferr
	} else if err == nil && stream.LA(1) != token.EOF {
		se := p.syntaxErr(stream.LT(1), startRule, "extraneous input after parse")
		if rerr := p.report(se); rerr != nil {
			err = rerr
		}
	}
	if p.probe != nil {
		// In recover mode report already announced every syntax error;
		// only the terminal error of a non-recovering parse is new here.
		if se, ok := err.(*runtime.SyntaxError); ok && !p.opts.Recover {
			p.probe.SyntaxError(se)
		}
		p.probe.EndParse(runtime.ParseEnd{Rule: startRule, Tokens: stream.Size(), Memo: p.memo, Err: err})
	}
	if err != nil {
		return nil, err
	}
	var root *Node
	if holder != nil && len(holder.Children) > 0 {
		root = holder.Children[0]
	}
	if lexErr := stream.Err(); lexErr != nil {
		return nil, lexErr
	}
	return root, nil
}

// lexerFailure returns the token source's error when the lexer failed
// outright rather than at a character of the input — the grammar's
// lexer DFA could not be built. Every token the parse saw after it was
// EOF padding, so it supersedes whatever error the parse reported. A
// *runtime.LexError does not: the interpreter lexes on demand, and a
// syntax error before the offending character is reported first.
func lexerFailure(stream *runtime.TokenStream) error {
	err := stream.Err()
	if _, ok := err.(*runtime.LexError); ok {
		return nil
	}
	return err
}

// Memo returns the memo table of the most recent parse (nil when
// memoization is off). Incremental sessions retain it across edits.
func (p *Parser) Memo() *runtime.MemoTable { return p.memo }

// ParseFragment parses a single invocation of startRule over stream,
// without requiring the input to be consumed to EOF, and returns the
// tree (when BuildTree is on) and the stream position after the rule.
// memo, which may be nil, is used as the speculation cache — incremental
// reparse passes a rebased table from a prior parse so verdicts outside
// the damaged region are reused. The probe sees a fragment parse:
// fragment reparses repair state, they do not replay committed events.
func (p *Parser) ParseFragment(startRule string, stream *runtime.TokenStream, memo *runtime.MemoTable) (*Node, int, error) {
	idx := p.m.RuleIndexByName(startRule)
	if idx < 0 {
		return nil, 0, fmt.Errorf("interp: no parser rule %s", startRule)
	}
	p.stream = stream
	p.memo = memo
	p.spec = 0
	p.deepestIdx = -1
	p.deepestErr = nil
	p.errors = nil
	p.ctx = runtime.Context{Stream: stream, State: p.opts.State}
	if p.probe != nil {
		p.probe.BeginParse(true)
	}
	var holder *Node
	if p.opts.BuildTree {
		holder = &Node{}
	}
	err := p.parseRule(idx, 0, holder)
	if ferr := lexerFailure(stream); ferr != nil {
		err = ferr
	}
	if p.probe != nil {
		p.probe.EndParse(runtime.ParseEnd{Rule: startRule, Fragment: true, Tokens: stream.Size(), Memo: memo, Err: err})
	}
	stop := stream.Index()
	if err != nil {
		return nil, stop, err
	}
	if lexErr := stream.Err(); lexErr != nil {
		return nil, stop, lexErr
	}
	var root *Node
	if holder != nil && len(holder.Children) > 0 {
		root = holder.Children[0]
	}
	return root, stop, nil
}

func (p *Parser) syntaxErr(at token.Token, rule, msg string) *runtime.SyntaxError {
	return &runtime.SyntaxError{Offending: at, Rule: rule, Msg: msg}
}

// noteFailure records the deepest speculative failure (Section 4.4: report
// errors at the deepest symbol reached by a failed speculative parse).
func (p *Parser) noteFailure(err *runtime.SyntaxError) {
	if idx := err.Offending.Index; idx >= p.deepestIdx {
		p.deepestIdx = idx
		p.deepestErr = err
	}
}

// parseRule parses one rule invocation. arg is the rule's integer
// argument (parameterized rules); parent receives the rule's tree node.
func (p *Parser) parseRule(idx, arg int, parent *Node) error {
	r := p.res.Grammar.Rules[idx]
	if p.probe != nil {
		p.probe.EnterRule(idx, r.Name, p.spec)
	}
	memoizable := p.memo != nil && p.spec > 0 && r.Args == "" && r.OptionBool("memoize", true)
	start := p.stream.Index()
	if memoizable {
		stop, ok := p.memo.Get(idx, start)
		if p.probe != nil {
			p.probe.Memo(idx, r.Name, start, p.spec, ok, ok && stop != runtime.MemoFailed)
		}
		if ok {
			if stop == runtime.MemoFailed {
				return p.syntaxErr(p.stream.LT(1), r.Name, "memoized failure")
			}
			p.stream.Seek(stop)
			return nil
		}
	}

	var node *Node
	if parent != nil && p.spec == 0 {
		node = &Node{Rule: r.Name}
		parent.Children = append(parent.Children, node)
	}
	err := p.walk(p.m.RuleStart[idx], p.m.RuleStop[idx], &frame{rule: r, arg: arg, node: node})
	if p.probe != nil {
		p.probe.ExitRule(idx, r.Name, p.spec)
	}
	if memoizable {
		if err != nil {
			p.memo.Put(idx, start, runtime.MemoFailed)
		} else {
			p.memo.Put(idx, start, p.stream.Index())
		}
	}
	return err
}

// frame is one rule invocation's context.
type frame struct {
	rule *grammar.Rule
	arg  int
	node *Node
}
