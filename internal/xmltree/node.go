// Package xmltree defines the schema tree model that every matcher in this
// repository operates on. An XML Schema is represented as a rooted, ordered
// tree of Nodes; each node carries a label, a set of properties, an ordered
// child list and its nesting level, mirroring the four axes of information
// (label, properties, children, level) of the QMatch paper (ICDE 2005, §2.1).
package xmltree

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Node is a single element or attribute in a schema tree.
//
// A fully built tree is safe for concurrent *read* access from any number
// of goroutines: the lazily computed level and path caches are maintained
// with atomics, so matchers may share one tree across workers. Mutating a
// tree (Add) while another goroutine reads it is not safe.
type Node struct {
	// Label is the element or attribute name as written in the schema.
	Label string
	// Props holds the atomic properties of the node (type, order,
	// occurrence constraints, ...).
	Props Properties
	// Children are the sub-elements and attributes of the node, in
	// document order. Attributes precede sub-elements.
	Children []*Node

	parent *Node
	level  atomic.Int32
	path   atomic.Pointer[string]
}

// New returns a leaf node with the given label and properties.
func New(label string, props Properties) *Node {
	return &Node{Label: label, Props: props}
}

// NewTree builds a node with the given children attached. Children are
// adopted in order and their Order property is assigned from their position
// (1-based) when it is unset.
func NewTree(label string, props Properties, children ...*Node) *Node {
	n := &Node{Label: label, Props: props}
	for _, c := range children {
		n.Add(c)
	}
	return n
}

// Add appends child to n, setting parent linkage and a 1-based Order when the
// child does not already carry one. It returns n for chaining.
func (n *Node) Add(child *Node) *Node {
	if child == nil {
		return n
	}
	child.parent = n
	if child.Props.Order == 0 {
		child.Props.Order = len(n.Children) + 1
	}
	n.Children = append(n.Children, child)
	// Only the adopted subtree's levels and paths depend on its new
	// ancestry; n's other descendants keep theirs. Invalidating just the
	// child keeps building a wide node linear rather than quadratic.
	child.invalidate()
	return n
}

// Parent returns the parent of n, or nil for a root.
func (n *Node) Parent() *Node { return n.parent }

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Root returns the root of the tree containing n.
func (n *Node) Root() *Node {
	r := n
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// Level returns the depth of n from its root; a root has level 0. Levels
// are computed lazily and cached with atomics, so concurrent readers of a
// finished tree may race to fill the cache but always store the same value.
// Add invalidates the cache of the subtree it attaches.
func (n *Node) Level() int {
	if n.parent == nil {
		return 0
	}
	if l := n.level.Load(); l != 0 {
		return int(l)
	}
	l := int32(n.parent.Level() + 1)
	n.level.Store(l)
	return int(l)
}

// Path returns the slash-separated label path from the root to n, e.g.
// "PO/PurchaseInfo/Lines/Quantity". Paths identify nodes in correspondences
// and gold standards. Like Level, the cache is atomic: concurrent readers
// compute equal strings and either store wins.
func (n *Node) Path() string {
	if p := n.path.Load(); p != nil {
		return *p
	}
	var p string
	if n.parent == nil {
		p = n.Label
	} else {
		p = n.parent.Path() + "/" + n.Label
	}
	n.path.Store(&p)
	return p
}

// invalidate clears cached levels and paths below n after mutation.
func (n *Node) invalidate() {
	n.Walk(func(d *Node) bool {
		d.path.Store(nil)
		if d.parent != nil {
			d.level.Store(0)
		}
		return true
	})
}

// Walk visits n and all descendants in depth-first pre-order. The visit
// function returns false to prune the subtree below the visited node.
func (n *Node) Walk(visit func(*Node) bool) {
	if n == nil {
		return
	}
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Nodes returns every node of the subtree rooted at n in pre-order.
func (n *Node) Nodes() []*Node {
	var out []*Node
	n.Walk(func(d *Node) bool {
		out = append(out, d)
		return true
	})
	return out
}

// Leaves returns the leaf nodes of the subtree rooted at n in document order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(d *Node) bool {
		if d.IsLeaf() {
			out = append(out, d)
		}
		return true
	})
	return out
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// MaxDepth returns the maximum nesting depth of the subtree rooted at n,
// counting n itself as depth 0. A lone leaf has MaxDepth 0.
func (n *Node) MaxDepth() int {
	depth := 0
	for _, c := range n.Children {
		if d := c.MaxDepth() + 1; d > depth {
			depth = d
		}
	}
	return depth
}

// Find returns the first node in pre-order whose Path equals path, or nil.
func (n *Node) Find(path string) *Node {
	var hit *Node
	n.Walk(func(d *Node) bool {
		if hit != nil {
			return false
		}
		if d.Path() == path {
			hit = d
			return false
		}
		return true
	})
	return hit
}

// FindLabel returns every node in the subtree whose label equals label.
func (n *Node) FindLabel(label string) []*Node {
	var out []*Node
	n.Walk(func(d *Node) bool {
		if d.Label == label {
			out = append(out, d)
		}
		return true
	})
	return out
}

// Clone returns a deep copy of the subtree rooted at n. The copy is a root
// (its parent is nil) regardless of n's position.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Label: n.Label, Props: n.Props}
	for _, child := range n.Children {
		cc := child.Clone()
		cc.parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Equal reports whether two subtrees are structurally identical: same labels,
// same properties and same ordered children, recursively.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Label != b.Label || a.Props != b.Props || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the node as "Label(type)" for diagnostics.
func (n *Node) String() string {
	if n.Props.Type == "" {
		return n.Label
	}
	return fmt.Sprintf("%s(%s)", n.Label, n.Props.Type)
}

// Dump renders an indented ASCII view of the subtree, one node per line, for
// debugging and for the example programs.
func (n *Node) Dump() string {
	var b strings.Builder
	n.dump(&b, 0)
	return b.String()
}

func (n *Node) dump(b *strings.Builder, indent int) {
	b.WriteString(strings.Repeat("  ", indent))
	b.WriteString(n.Label)
	if s := n.Props.Summary(); s != "" {
		b.WriteString(" [" + s + "]")
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.dump(b, indent+1)
	}
}

// Labels returns the sorted set of distinct labels in the subtree.
func (n *Node) Labels() []string {
	seen := map[string]bool{}
	n.Walk(func(d *Node) bool {
		seen[d.Label] = true
		return true
	})
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
