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

// runtimeEvalArg adapts runtime.EvalRuleArg for walk.
func runtimeEvalArg(text string, callerArg int) (int, error) {
	if text == "" {
		return 0, nil
	}
	return runtime.EvalRuleArg(text, callerArg)
}
