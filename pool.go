package llstar

import (
	"sync"

	"llstar/internal/obs"
)

// ParserPool recycles Parsers for one Grammar so a loaded grammar can
// serve many simultaneous parses without re-allocating per-parse
// machinery (lazily built lookahead tables, stats tables, tracer
// bindings) on every request. It is safe for concurrent use: Get hands
// each goroutine a private Parser; Put returns it for reuse.
//
// The zero value is not usable; construct pools with
// Grammar.NewParserPool. All pooled Parsers share the pool's option set
// — per-request state (memo table, stats, errors) is reset by Parse, so
// a recycled Parser is indistinguishable from a fresh one.
type ParserPool struct {
	g    *Grammar
	opts []ParserOption
	pool sync.Pool

	// With a WithMetrics registry in opts, the pool accounts hits,
	// misses and returns, resolving each series once (all nil without
	// one):
	//   llstar_pool_gets_total{result="hit"|"miss"}
	//   llstar_pool_puts_total
	hits, misses, puts *obs.Counter
}

// NewParserPool returns a pool of parsers configured with opts (the same
// options NewParser accepts). Parsers are created on demand and recycled
// across Get/Put; idle parsers may be dropped by the garbage collector.
func (g *Grammar) NewParserPool(opts ...ParserOption) *ParserPool {
	pp := &ParserPool{g: g, opts: opts}
	if mx := configure(opts).metrics; mx != nil {
		pp.hits = mx.Counter(obs.Label("llstar_pool_gets_total", "result", "hit"))
		pp.misses = mx.Counter(obs.Label("llstar_pool_gets_total", "result", "miss"))
		pp.puts = mx.Counter("llstar_pool_puts_total")
	}
	return pp
}

// Get returns a Parser owned by the caller until Put. The Parser must be
// used by one goroutine at a time, like any Parser.
func (pp *ParserPool) Get() *Parser {
	if v := pp.pool.Get(); v != nil {
		if pp.hits != nil {
			pp.hits.Inc()
		}
		return v.(*Parser)
	}
	if pp.misses != nil {
		pp.misses.Inc()
	}
	return pp.g.NewParser(pp.opts...)
}

// Put returns a Parser obtained from Get to the pool. The caller must
// not use p (including its Stats and Errors) after Put.
func (pp *ParserPool) Put(p *Parser) {
	if p == nil {
		return
	}
	if pp.puts != nil {
		pp.puts.Inc()
	}
	pp.pool.Put(p)
}

// Parse checks a parser out of the pool, parses input starting at
// startRule (the grammar's first rule if empty), and returns the parser
// to the pool. It is safe to call from any number of goroutines.
//
// Because the parser is recycled before returning, per-parse Stats and
// Errors are not reachable from Parse; use Get/Put directly when you
// need them.
func (pp *ParserPool) Parse(startRule, input string) (*Tree, error) {
	p := pp.Get()
	defer pp.Put(p)
	return p.Parse(startRule, input)
}

// ParseConcurrent parses input using a shared, lazily initialized pool
// of tree-building parsers. It is the one-call serving path: any number
// of goroutines may call it on the same Grammar simultaneously.
//
//	g, _ := llstar.LoadFile("expr.g")
//	for req := range requests {
//		go func(src string) {
//			tree, err := g.ParseConcurrent("s", src)
//			...
//		}(req)
//	}
//
// For custom options (hooks, recovery, metrics), build a pool with
// NewParserPool instead.
func (g *Grammar) ParseConcurrent(startRule, input string) (*Tree, error) {
	g.concOnce.Do(func() {
		opts := []ParserOption{WithTree()}
		if g.concCov != nil {
			opts = append(opts, WithCoverage(g.concCov))
		}
		g.concPool = g.NewParserPool(opts...)
	})
	return g.concPool.Parse(startRule, input)
}

// SetConcurrentCoverage instruments the shared pool behind
// ParseConcurrent with a coverage profile. Call it before the first
// ParseConcurrent on this Grammar — the pool is built once, so later
// calls do not take effect.
func (g *Grammar) SetConcurrentCoverage(p *CoverageProfile) { g.concCov = p }
