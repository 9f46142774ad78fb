package main

import (
	"fmt"
	"io"
)

// node is one line of a per-layer tree: a layer's time (or the workload's
// total at the root), an optional note such as an isolated cross-check, and
// the layers it contains.
type node struct {
	name     string
	value    float64
	unit     string
	note     string
	children []*node
}

func leaf(name string, value float64, unit, note string) *node {
	return &node{name: name, value: value, unit: unit, note: note}
}

// add appends children and returns n.
func (n *node) add(children ...*node) *node {
	n.children = append(n.children, children...)
	return n
}

// rest appends the unattributed child, n's value minus its children's, so
// the children always sum to the parent. It returns that remainder.
func (n *node) rest(name string) float64 {
	r := n.value
	for _, c := range n.children {
		r -= c.value
	}
	n.children = append(n.children, leaf(name, r, n.unit, "time no child layer accounts for"))
	return r
}

// print writes the tree with box-drawing guides.
func (n *node) print(w io.Writer, prefix string, last, root bool) {
	branch, next := "├─ ", "│  "
	if last {
		branch, next = "└─ ", "   "
	}
	if root {
		branch, next = "", ""
	}
	line := fmt.Sprintf("%s%s%-28s %12.6g %s", prefix, branch, n.name, n.value, n.unit)
	if n.note != "" {
		line += "   [" + n.note + "]"
	}
	fmt.Fprintln(w, line)
	for i, c := range n.children {
		c.print(w, prefix+next, i == len(n.children)-1, false)
	}
}
