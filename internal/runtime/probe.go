package runtime

import "llstar/internal/token"

// Probe observes a parser's parse loop. It is the interpreter's single
// instrumentation point: each site in the loop is one nil check on the
// parser's probe followed by one call, and everything that watches a
// parse — decision statistics, coverage, tracing and flight recording,
// metrics, SAX streaming, error listeners — consumes this one event
// stream. Calls arrive synchronously on the parsing goroutine, one
// parse at a time; a consumer must not call back into the parser.
//
// Embed NopProbe to implement only the events a consumer needs, and use
// JoinProbes to install several consumers.
type Probe interface {
	// BeginParse starts a parse. fragment marks an incremental reparse
	// of one rule, which repairs state and replays no committed events.
	BeginParse(fragment bool)
	// EnterRule is a rule invocation, speculative ones included: depth
	// is the speculation level, 0 for committed work.
	EnterRule(rule int, name string, depth int)
	// ExitRule ends an entered invocation, also when it unwinds on a
	// syntax error. Invocations answered by the memo table do not exit.
	ExitRule(rule int, name string, depth int)
	// Memo is a speculative invocation's packrat-cache lookup at token
	// index start: hit reports a cached verdict, ok that the verdict was
	// a match.
	Memo(rule int, name string, start, depth int, hit, ok bool)
	// BeginPredict starts a prediction.
	BeginPredict()
	// DFAState: the prediction entered a state of the decision's
	// lookahead DFA — its start state, or one reached over an edge.
	DFAState(decision, state int, edge bool)
	// Predict ends the prediction.
	Predict(Prediction)
	// BeginSpeculate starts a speculative sub-parse.
	BeginSpeculate()
	// Speculate ends it: the input has rewound.
	Speculate(Speculation)
	// SemPred reports a semantic predicate's verdict (err when it could
	// not be evaluated).
	SemPred(rule, text string, depth int, ok bool, err error)
	// Token is a committed (non-speculative) consumed token, in input
	// order. Error-recovery insertions do not fire; recovery deletions
	// skip the deleted token.
	Token(token.Token)
	// SyntaxError fires for every error recovered in Recover mode, and
	// otherwise for the terminal error of a full parse.
	SyntaxError(*SyntaxError)
	// Resync: panic-mode recovery at a decision deleted tokens; ok
	// reports that a viable alternative was found.
	Resync(decision int, rule string, deleted int, ok bool)
	// EndParse ends the parse.
	EndParse(ParseEnd)
}

// Prediction is one prediction event, the unit of the paper's runtime
// profile (Tables 3 and 4).
type Prediction struct {
	Decision int
	Rule     string // the rule the decision belongs to
	Alt      int    // the predicted alternative; 0 when the prediction failed
	K        int    // lookahead depth: tokens examined, speculation included
	Depth    int    // speculation nesting level
	// Backtracked reports whether the prediction speculated.
	Backtracked, Failed bool
}

// Speculation is one finished speculative sub-parse.
type Speculation struct {
	Decision int // the decision whose prediction launched it
	// SynPred is the syntactic predicate speculated, or -1 when
	// alternative Alt was.
	SynPred, Alt int
	Rule         string // the rule the speculated fragment belongs to
	Tokens       int    // tokens consumed before the rewind
	Depth        int    // nesting level it ran at; 1 is outermost
	OK           bool
}

// ParseEnd describes a finished parse.
type ParseEnd struct {
	Rule     string // the start rule
	Fragment bool
	Tokens   int        // tokens the stream buffered
	Memo     *MemoTable // nil when memoization is off
	Err      error
}

// NopProbe ignores every event; consumers embed it and override the
// events they record.
type NopProbe struct{}

func (NopProbe) BeginParse(bool)                          {}
func (NopProbe) EnterRule(int, string, int)               {}
func (NopProbe) ExitRule(int, string, int)                {}
func (NopProbe) Memo(int, string, int, int, bool, bool)   {}
func (NopProbe) BeginPredict()                            {}
func (NopProbe) DFAState(int, int, bool)                  {}
func (NopProbe) Predict(Prediction)                       {}
func (NopProbe) BeginSpeculate()                          {}
func (NopProbe) Speculate(Speculation)                    {}
func (NopProbe) SemPred(string, string, int, bool, error) {}
func (NopProbe) Token(token.Token)                        {}
func (NopProbe) SyntaxError(*SyntaxError)                 {}
func (NopProbe) Resync(int, string, int, bool)            {}
func (NopProbe) EndParse(ParseEnd)                        {}

// JoinProbes combines consumers into the one probe a parser holds: nil
// for none (the parser's nil-check fast path), the consumer itself for
// one, and otherwise a fan-out calling each in order. Nil entries are
// dropped and nested fan-outs flattened.
func JoinProbes(ps ...Probe) Probe {
	var live probes
	for _, p := range ps {
		if nested, ok := p.(probes); ok {
			live = append(live, nested...)
		} else if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// probes fans every event out to several consumers.
type probes []Probe

func (ps probes) BeginParse(fragment bool) {
	for _, p := range ps {
		p.BeginParse(fragment)
	}
}

func (ps probes) EnterRule(rule int, name string, depth int) {
	for _, p := range ps {
		p.EnterRule(rule, name, depth)
	}
}

func (ps probes) ExitRule(rule int, name string, depth int) {
	for _, p := range ps {
		p.ExitRule(rule, name, depth)
	}
}

func (ps probes) Memo(rule int, name string, start, depth int, hit, ok bool) {
	for _, p := range ps {
		p.Memo(rule, name, start, depth, hit, ok)
	}
}

func (ps probes) BeginPredict() {
	for _, p := range ps {
		p.BeginPredict()
	}
}

func (ps probes) DFAState(decision, state int, edge bool) {
	for _, p := range ps {
		p.DFAState(decision, state, edge)
	}
}

func (ps probes) Predict(e Prediction) {
	for _, p := range ps {
		p.Predict(e)
	}
}

func (ps probes) BeginSpeculate() {
	for _, p := range ps {
		p.BeginSpeculate()
	}
}

func (ps probes) Speculate(e Speculation) {
	for _, p := range ps {
		p.Speculate(e)
	}
}

func (ps probes) SemPred(rule, text string, depth int, ok bool, err error) {
	for _, p := range ps {
		p.SemPred(rule, text, depth, ok, err)
	}
}

func (ps probes) Token(t token.Token) {
	for _, p := range ps {
		p.Token(t)
	}
}

func (ps probes) SyntaxError(se *SyntaxError) {
	for _, p := range ps {
		p.SyntaxError(se)
	}
}

func (ps probes) Resync(decision int, rule string, deleted int, ok bool) {
	for _, p := range ps {
		p.Resync(decision, rule, deleted, ok)
	}
}

func (ps probes) EndParse(e ParseEnd) {
	for _, p := range ps {
		p.EndParse(e)
	}
}
