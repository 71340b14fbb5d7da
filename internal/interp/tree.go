package interp

import (
	"strings"

	"llstar/internal/runtime"
	"llstar/internal/token"
)

// Node is a parse-tree node: either a rule node (Rule != "") with
// children, or a token leaf (Token != nil).
type Node struct {
	Rule     string
	Token    *token.Token
	Children []*Node
}

// String renders the tree as an s-expression: (rule child ...). A
// length pass sizes one buffer, and the rendering pass fills it.
func (n *Node) String() string {
	if n == nil {
		return "nil"
	}
	if n.Token != nil {
		return n.Token.Text
	}
	var b strings.Builder
	b.Grow(n.renderLen())
	n.render(&b)
	return b.String()
}

// renderLen is the length of n's rendering.
func (n *Node) renderLen() int {
	switch {
	case n == nil:
		return len("nil")
	case n.Token != nil:
		return len(n.Token.Text)
	}
	size := len(n.Rule) + 2 + len(n.Children)
	for _, c := range n.Children {
		size += c.renderLen()
	}
	return size
}

// render appends n's rendering to b.
func (n *Node) render(b *strings.Builder) {
	switch {
	case n == nil:
		b.WriteString("nil")
		return
	case n.Token != nil:
		b.WriteString(n.Token.Text)
		return
	}
	b.WriteByte('(')
	b.WriteString(n.Rule)
	for _, c := range n.Children {
		b.WriteByte(' ')
		c.render(b)
	}
	b.WriteByte(')')
}

// Leaves returns the tree's tokens in order.
func (n *Node) Leaves() []token.Token {
	var out []token.Token
	var visit func(*Node)
	visit = func(m *Node) {
		if m.Token != nil {
			out = append(out, *m.Token)
			return
		}
		for _, c := range m.Children {
			visit(c)
		}
	}
	visit(n)
	return out
}

// Text reconstructs the leaf text joined by spaces.
func (n *Node) Text() string {
	leaves := n.Leaves()
	parts := make([]string, len(leaves))
	for i, t := range leaves {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

// Count returns the number of nodes in the tree.
func (n *Node) Count() int {
	total := 1
	for _, c := range n.Children {
		total += c.Count()
	}
	return total
}

// Walk visits every node in depth-first order; fn returning false prunes
// descent below that node.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns every node for the given rule, in depth-first order.
func (n *Node) Find(rule string) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Rule == rule {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Child returns the i-th child, or nil if out of range — convenient for
// chained navigation without bounds checks.
func (n *Node) Child(i int) *Node {
	if n == nil || i < 0 || i >= len(n.Children) {
		return nil
	}
	return n.Children[i]
}

// TokenAt returns the i-th child's token, or nil if it is not a leaf.
func (n *Node) TokenAt(i int) *token.Token {
	c := n.Child(i)
	if c == nil {
		return nil
	}
	return c.Token
}

// Slab chunk sizes, in elements: each parse's first chunks are small,
// so a small parse allocates little, and each next chunk doubles up to
// the cap.
const (
	firstNodeChunk, lastNodeChunk   = 32, 1024
	firstChildChunk, lastChildChunk = 64, 2048
	firstTokenChunk, lastTokenChunk = 16, 512
)

// slab hands out elements of chunks it allocates in sizes doubling
// from first to last. It never hands out an element twice: a chunk
// lives as long as anything carved from it, so a slab must not outlive
// the parse that fills it. A request larger than the next chunk gets an
// allocation of its own, and first == 0 allocates every request on its
// own.
type slab[T any] struct {
	free        []T // unused tail of the current chunk
	next        int // size of the next chunk
	first, last int
}

func newSlab[T any](first, last int) slab[T] {
	return slab[T]{next: first, first: first, last: last}
}

// take returns n fresh elements as a slice of length and capacity n.
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		if n > s.next {
			return make([]T, n)
		}
		s.free = make([]T, s.next)
		s.next = min(2*s.next, s.last)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// drop forgets the current chunk and restarts the chunk sizes.
func (s *slab[T]) drop() { s.free, s.next = nil, s.first }

// treeArena builds one parse's tree. Nodes, rule nodes' children
// slices and the tokens leaves point at are carved from slabs; the
// children of the rules still being parsed wait on a stack until their
// rule returns. Every parse starts on fresh slabs and drops them when it
// returns, so a returned tree shares no memory with a later parse.
type treeArena struct {
	nodes    slab[Node]
	children slab[*Node]
	tokens   slab[token.Token]
	// open holds the children of every rule invocation still being
	// built, innermost last.
	open []*Node
}

// newTreeArena returns an arena that carves from chunks, or, for a
// caller that edits its trees in place, allocates every node, children
// slice and token on its own: a chunk would keep a replaced subtree
// alive as long as any of its neighbours.
func newTreeArena(editable bool) treeArena {
	if editable {
		return treeArena{}
	}
	return treeArena{
		nodes:    newSlab[Node](firstNodeChunk, lastNodeChunk),
		children: newSlab[*Node](firstChildChunk, lastChildChunk),
		tokens:   newSlab[token.Token](firstTokenChunk, lastTokenChunk),
	}
}

// token returns a stable copy of t.
func (b *treeArena) token(t token.Token) *token.Token {
	tok := &b.tokens.take(1)[0]
	*tok = t
	return tok
}

// leaf adds a leaf for t to the innermost open rule.
func (b *treeArena) leaf(t token.Token) *Node {
	n := &b.nodes.take(1)[0]
	n.Token = b.token(t)
	b.open = append(b.open, n)
	return n
}

// enter adds a node for rule to the innermost open rule and opens it;
// its children start at the returned stack height.
func (b *treeArena) enter(rule string) (*Node, int) {
	n := &b.nodes.take(1)[0]
	n.Rule = rule
	b.open = append(b.open, n)
	return n, len(b.open)
}

// exit closes n, whose children start at stack height base, moving them
// into an exact-length slice. The stack keeps no reference to them.
func (b *treeArena) exit(n *Node, base int) {
	if kids := b.open[base:]; len(kids) > 0 {
		n.Children = b.children.take(len(kids))
		copy(n.Children, kids)
		clear(kids)
		b.open = b.open[:base]
	}
}

// finish ends a parse: it returns the root the parse built (nil if
// none) and resets the arena.
func (b *treeArena) finish() *Node {
	var root *Node
	if len(b.open) > 0 {
		root = b.open[0]
	}
	b.reset()
	return root
}

// reset drops every reference the arena holds to a parse's tree.
func (b *treeArena) reset() {
	clear(b.open)
	b.open = b.open[:0]
	b.nodes.drop()
	b.children.drop()
	b.tokens.drop()
}

// runtimeEvalArg adapts runtime.EvalRuleArg for walk.
func runtimeEvalArg(text string, callerArg int) (int, error) {
	if text == "" {
		return 0, nil
	}
	return runtime.EvalRuleArg(text, callerArg)
}
