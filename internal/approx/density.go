// Package approx implements the BDD approximation algorithms of Section 2
// of the DAC'98 paper "Approximation and Decomposition of Binary Decision
// Diagrams" (Ravi, McMillan, Shiple, Somenzi):
//
//   - HeavyBranch (HB): heavy-branch subsetting, Ravi–Somenzi ICCAD'95.
//   - ShortPaths (SP): short-path subsetting, Ravi–Somenzi ICCAD'95.
//   - UnderApprox (UA): Shiple's bddUnderApprox — replace-by-0 only, convex
//     cost, handles both complementation parities, not density-safe.
//   - RemapUnderApprox (RUA): the paper's new three-pass algorithm with
//     remap, replace-by-grandchild, and replace-by-0 transformations and a
//     density-based acceptance test (Figures 2–4 of the paper).
//   - Compound methods C1 and C2 (Section 2.2): compositions with the safe
//     interval minimization µ.
//
// All functions return under- (or over-) approximations in the BDD sense:
// UnderX(f) ⇒ f and f ⇒ OverX(f). Results carry one reference owned by the
// caller.
package approx

import "bddkit/internal/bdd"

// Density returns δ(f) = ‖f‖/|f| over the manager's variable count — the
// figure of merit the paper ranks approximations by.
func Density(m *bdd.Manager, f bdd.Ref) float64 {
	return m.Density(f, m.NumVars())
}

// nodeData is the per-node record of the analysis pass ("info" in Figure 2
// of the paper).
type nodeData struct {
	frac    float64 // minterm fraction of the regular node's function
	funcRef int32   // arcs within f pointing at this node (root counts 1)
	parity  uint8   // 1 = reached with even parity, 2 = odd, 3 = both
	// Fields below are used by markNodes.
	weightE float64 // fraction of assignments whose path reaches the node uncomplemented
	weightO float64 // same, through an odd number of complement arcs
	queued  bool
	status  replStatus
	sel     bdd.Ref // replacement description (meaning depends on status)
	selVar  int     // grandchild variable for statusGrandchild
	selThen bool    // grandchild direction: true = y·g, false = ¬y·g
}

type replStatus uint8

const (
	statusKeep replStatus = iota
	statusZero
	statusRemap
	statusGrandchild
)

const (
	parityEven = 1
	parityOdd  = 2
)

// info aggregates the analysis of one BDD ("info" of Figure 2): per-node
// data plus the global result estimates used by the density test.
type info struct {
	m   *bdd.Manager
	cfg RemapConfig
	// slots numbers the nodes of f; nodes holds their records by slot.
	slots *bdd.SlotTable
	nodes []nodeData
	// dom is dominatedSet's scratch state, reused for every candidate.
	dom domination
	// buildOp is the per-invocation computed-table code under which the
	// rebuild pass memoizes its results in the manager's shared cache
	// (see buildResult).
	buildOp uint32
	// Estimates of the result: size in nodes and minterm fraction.
	resultSize int
	resultFrac float64
	rootFrac   float64
	rootSize   int
	// Bias fields (BiasedUnderApprox): when biasWeight > 1, minterm
	// losses at nodes overlapping the bias set are inflated by up to
	// that factor in the density test.
	biasWeight float64
	biasFrac   []float64 // slot -> biased fraction (nil: no bias)
}

// lossScale returns the multiplier the density test applies to minterm
// losses at the given node, according to the bias configuration.
func (in *info) lossScale(node bdd.Ref) float64 {
	if in.biasWeight <= 1 || in.biasFrac == nil {
		return 1
	}
	s, ok := in.slots.Slot(node)
	if !ok || in.nodes[s].frac <= 0 {
		return 1
	}
	share := in.biasFrac[s] / in.nodes[s].frac
	if share > 1 {
		share = 1
	}
	return 1 + (in.biasWeight-1)*share
}

// analyze performs the first pass of remapUnderApprox (Figure 2): a
// depth-first traversal computing, for every node, the minterm fraction of
// its function, the number of arcs pointing to it, and the parities it is
// reached with. The caller releases the result's tables with release.
func analyze(m *bdd.Manager, f bdd.Ref) *info {
	in := &info{m: m, slots: m.Slots()}
	in.collect(f)
	root := in.at(f)
	root.funcRef = 1
	in.markParity(f)
	in.rootFrac = fracOf(in, f)
	in.rootSize = in.slots.Len() // collect visited every node of f once
	in.resultSize = in.rootSize
	in.resultFrac = in.rootFrac
	return in
}

// release hands the analysis' slot tables back to the manager.
func (in *info) release() {
	in.slots.Release()
	if in.dom.t != nil {
		in.dom.t.Release()
	}
}

// at returns the record of f's node (by regular id), or nil if the node is
// not part of the analyzed function.
func (in *info) at(f bdd.Ref) *nodeData {
	s, ok := in.slots.Slot(f)
	if !ok {
		return nil
	}
	return &in.nodes[s]
}

// collect fills frac and funcRef for every node reachable from f and
// returns the slot of f's node. It works on slots rather than record
// pointers because the records slice grows during the walk.
func (in *info) collect(f bdd.Ref) int {
	s, added := in.slots.Add(f)
	if !added {
		return s
	}
	in.nodes = append(in.nodes, nodeData{})
	if f.IsConstant() {
		in.nodes[s].frac = 1 // regular constant is One
		return s
	}
	hi := in.m.StructHi(f)
	lo := in.m.StructLo(f)
	sh := in.collect(hi)
	sl := in.collect(lo)
	in.nodes[sh].funcRef++
	in.nodes[sl].funcRef++
	ph := in.nodes[sh].frac // hi edge is regular
	pl := in.nodes[sl].frac
	if lo.IsComplement() {
		pl = 1 - pl
	}
	in.nodes[s].frac = 0.5*ph + 0.5*pl
	return s
}

// markParity records, for every node, the complementation parities of the
// paths reaching it from f.
func (in *info) markParity(f bdd.Ref) {
	bit := uint8(parityEven)
	if f.IsComplement() {
		bit = parityOdd
	}
	d := in.at(f)
	if d.parity&bit != 0 {
		return
	}
	d.parity |= bit
	if f.IsConstant() {
		return
	}
	c := bdd.Ref(0)
	if f.IsComplement() {
		c = 1
	}
	in.markParity(in.m.StructHi(f) ^ c)
	in.markParity(in.m.StructLo(f) ^ c)
}

// fracOf returns the minterm fraction of the function denoted by f (parity
// applied).
func fracOf(in *info, f bdd.Ref) float64 {
	p := in.at(f).frac
	if f.IsComplement() {
		return 1 - p
	}
	return p
}

// levelQueue is the priority queue of Figures 3 and 4: nodes are dequeued
// in increasing level order, so a node is processed only after every parent
// within f.
type levelQueue struct {
	m       *bdd.Manager
	buckets [][]bdd.Ref // level -> regular refs
	cur     int
	n       int
}

func newLevelQueue(m *bdd.Manager) *levelQueue {
	return &levelQueue{m: m, buckets: make([][]bdd.Ref, m.NumVars()+1)}
}

func (q *levelQueue) push(f bdd.Ref, lev int) {
	q.buckets[lev] = append(q.buckets[lev], f)
	if lev < q.cur {
		q.cur = lev
	}
	q.n++
}

func (q *levelQueue) pop() (bdd.Ref, bool) {
	for q.cur < len(q.buckets) {
		b := q.buckets[q.cur]
		if len(b) > 0 {
			f := b[len(b)-1]
			q.buckets[q.cur] = b[:len(b)-1]
			q.n--
			return f, true
		}
		q.cur++
	}
	return 0, false
}
