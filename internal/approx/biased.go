package approx

import "bddkit/internal/bdd"

// BiasedUnderApprox is the bias-directed variant of remapUnderApprox
// (CUDD's Cudd_BiasedUnderApprox, a descendant of the paper's algorithm):
// minterms inside a bias set weigh more than minterms outside it, so the
// subset gravitates toward the states the caller cares about. The paper's
// reachability application motivates it directly: when subsetting a
// frontier, states near the unexplored region are worth more than states
// deep inside the reached set.
//
// weight > 1 is the multiplier applied to minterms of f ∧ bias when the
// density test evaluates a replacement; weight = 1 degenerates to
// RemapUnderApprox. The result is always a true underapproximation of f.
func BiasedUnderApprox(m *bdd.Manager, f, bias bdd.Ref, threshold int, quality, weight float64) bdd.Ref {
	defer m.PauseAutoReorder()()
	if f.IsConstant() {
		return m.Ref(f)
	}
	if weight < 1 {
		weight = 1
	}
	lg := beginLedger(m, "biased", f, threshold)
	in := analyze(m, f)
	defer in.release()
	// Reweigh each node's minterm fraction by how much of it lies in the
	// bias set: frac' = frac + (weight-1)·frac(f ∧ bias at the node).
	// The biased fraction of a node is computed against the node's own
	// subfunction, using the same memoized recursion as analyze but
	// cofactoring the bias alongside.
	in.biasWeight = weight
	in.biasFrac = computeBiasFractions(in, f, bias)
	markNodes(in, f, threshold, quality)
	r := buildResult(in, f)
	lg.done(r)
	return r
}

// computeBiasFractions returns, indexed by in's slot for every node
// reachable in f, the minterm fraction of (node ∧ bias-cofactor) — the
// recursion carries the bias down its own cofactors so each node is
// weighed against the portion of the bias set that can still reach it.
// The memo is keyed by (function, bias cofactor) pairs, not by node.
func computeBiasFractions(in *info, f, bias bdd.Ref) []float64 {
	m := in.m
	out := make([]float64, in.slots.Len())
	type key struct {
		f, b bdd.Ref
	}
	memo := make(map[key]float64)
	var rec func(g, b bdd.Ref) float64
	rec = func(g, b bdd.Ref) float64 {
		if b == bdd.Zero || g == bdd.Zero {
			return 0
		}
		if g == bdd.One {
			return m.MintermFraction(b)
		}
		k := key{g, b}
		if v, ok := memo[k]; ok {
			return v
		}
		lev := int32(m.Level(g))
		if !b.IsConstant() && int32(m.Level(b)) < lev {
			lev = int32(m.Level(b))
		}
		var g1, g0, b1, b0 bdd.Ref
		if !g.IsConstant() && int32(m.Level(g)) == lev {
			g1, g0 = m.Hi(g), m.Lo(g)
		} else {
			g1, g0 = g, g
		}
		if !b.IsConstant() && int32(m.Level(b)) == lev {
			b1, b0 = m.Hi(b), m.Lo(b)
		} else {
			b1, b0 = b, b
		}
		v := 0.5*rec(g1, b1) + 0.5*rec(g0, b0)
		memo[k] = v
		// Record the best-known biased fraction for the regular node
		// (a node reached under several bias cofactors keeps the
		// largest, erring toward protecting it).
		if s, ok := in.slots.Slot(g); ok && v > out[s] {
			out[s] = v
		}
		return v
	}
	rec(f.Regular(), bias)
	rec(f.Regular().Complement(), bias)
	return out
}
