package bdd

import (
	"fmt"
	"io"
	"sort"
)

// DotOptions customizes DumpDotStyled output.
type DotOptions struct {
	// NodeColor, when non-nil, returns a Graphviz fillcolor for the node
	// with the given id ("" leaves the node unstyled). Profilers use it to
	// grade nodes by minterm density so the plot shows where approximation
	// will cut (see internal/prof.Profile.DotColor).
	NodeColor func(id uint32) string
}

// DumpDot writes the forest rooted at the named functions in Graphviz dot
// format, in the visual style of Figure 1 of the paper: solid lines for
// then arcs, dashed lines for regular else arcs, dotted lines for
// complemented else arcs.
func (m *Manager) DumpDot(w io.Writer, names []string, roots []Ref) error {
	return m.DumpDotStyled(w, names, roots, DotOptions{})
}

// DumpDotStyled is DumpDot with per-node styling.
func (m *Manager) DumpDotStyled(w io.Writer, names []string, roots []Ref, opts DotOptions) error {
	if len(names) != len(roots) {
		return fmt.Errorf("bdd: DumpDot: %d names for %d roots", len(names), len(roots))
	}
	if _, err := fmt.Fprintln(w, "digraph BDD {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir = TB;")
	// Collect nodes grouped by level for rank constraints.
	seen := m.Slots()
	defer seen.Release()
	for _, r := range roots {
		m.markRec(r.index(), seen)
	}
	byLevel := make(map[int32][]int32)
	for _, idx := range seen.ids {
		if lev := m.nodes[idx].level; lev != terminalLevel {
			byLevel[lev] = append(byLevel[lev], int32(idx))
		}
	}
	// Root pointers.
	for i, name := range names {
		fmt.Fprintf(w, "  %q [shape=plaintext];\n", name)
		style := "solid"
		if roots[i].IsComplement() {
			style = "dotted"
		}
		fmt.Fprintf(w, "  %q -> n%d [style=%s];\n", name, roots[i].index(), style)
	}
	// Nodes, one rank per level.
	levels := make([]int32, 0, len(byLevel))
	for lev := range byLevel {
		levels = append(levels, lev)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	for _, lev := range levels {
		fmt.Fprintf(w, "  { rank = same;")
		for _, idx := range byLevel[lev] {
			fmt.Fprintf(w, " n%d;", idx)
		}
		fmt.Fprintln(w, " }")
		for _, idx := range byLevel[lev] {
			style := ""
			if opts.NodeColor != nil {
				if c := opts.NodeColor(uint32(idx)); c != "" {
					style = fmt.Sprintf(", style=filled, fillcolor=%q", c)
				}
			}
			fmt.Fprintf(w, "  n%d [label=\"x%d\"%s];\n", idx, m.levToVar[lev], style)
		}
	}
	fmt.Fprintln(w, "  c1 [shape=box, label=\"1\"];")
	// Arcs.
	for _, idx := range seen.ids {
		n := &m.nodes[idx]
		if n.level == terminalLevel {
			continue
		}
		fmt.Fprintf(w, "  n%d -> %s [style=solid];\n", idx, dotTarget(n.hi))
		style := "dashed"
		if n.lo.IsComplement() {
			style = "dotted"
		}
		fmt.Fprintf(w, "  n%d -> %s [style=%s];\n", idx, dotTarget(n.lo), style)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func dotTarget(r Ref) string {
	if r.Regular() == One {
		return "c1"
	}
	return fmt.Sprintf("n%d", r.index())
}
