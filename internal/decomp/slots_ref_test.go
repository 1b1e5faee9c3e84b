package decomp_test

import (
	"sort"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/decomp"
	"bddkit/internal/oracle"
)

// Map-based reference versions of the decomposition walks that moved to
// SlotTables, kept as an independent check of them.

func refEstimateCofactorSize(m *bdd.Manager, f bdd.Ref, v int, value bool) int {
	lev := m.LevelOfVar(v)
	seen := make(map[uint32]bool)
	count := 0
	var walk func(r bdd.Ref)
	walk = func(r bdd.Ref) {
		if r.IsConstant() || seen[r.ID()] {
			return
		}
		seen[r.ID()] = true
		count++
		if m.Level(r) == lev {
			if value {
				walk(m.StructHi(r))
			} else {
				walk(m.StructLo(r))
			}
			count--
			return
		}
		walk(m.StructHi(r))
		walk(m.StructLo(r))
	}
	walk(f)
	return count + 1
}

// refDisjointPoints is DisjointPoints measuring each candidate with three
// walks (DagSize of each child and their SharingSize) over a map-keyed
// breadth-first order.
func refDisjointPoints(m *bdd.Manager, f bdd.Ref, cfg decomp.DisjointConfig) decomp.Points {
	total := m.DagSize(f)
	var order []bdd.Ref
	seen := map[uint32]bool{f.ID(): true}
	queue := []bdd.Ref{f.Regular()}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if r.IsConstant() {
			continue
		}
		order = append(order, r)
		for _, c := range [2]bdd.Ref{m.StructHi(r), m.StructLo(r)} {
			if !c.IsConstant() && !seen[c.ID()] {
				seen[c.ID()] = true
				queue = append(queue, c.Regular())
			}
		}
	}
	type scored struct {
		id    uint32
		score float64
	}
	var best []scored
	sampled := 0
	for _, r := range order {
		if sampled >= cfg.MaxCandidates {
			break
		}
		hi, lo := m.StructHi(r), m.StructLo(r)
		if hi.IsConstant() || lo.IsConstant() {
			continue
		}
		sampled++
		szHi, szLo := m.DagSize(hi), m.DagSize(lo)
		small, big := min(szHi, szLo), max(szHi, szLo)
		if small < cfg.MinSubtree {
			continue
		}
		union := m.SharingSize([]bdd.Ref{hi, lo})
		disjointness := max(0, 1-float64(szHi+szLo-union)/float64(small))
		mass := float64(union) / float64(total)
		if mass > 0.75 {
			mass = 1.5 - mass
		}
		best = append(best, scored{r.ID(), float64(small) / float64(big) * disjointness * mass})
	}
	sort.Slice(best, func(i, j int) bool { return best[i].score > best[j].score })
	pts := make(decomp.Points)
	for i := 0; i < len(best) && i < cfg.MaxPoints; i++ {
		if best[i].score <= 0 && len(pts) > 0 {
			break
		}
		pts[best[i].id] = true
	}
	return pts
}

func samePoints(a, b decomp.Points) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

func checkDecompWalks(t *testing.T, m *bdd.Manager, stage string, fs []bdd.Ref) {
	t.Helper()
	points := 0
	for i, f := range fs {
		for _, v := range m.SupportVars(f) {
			for _, val := range []bool{false, true} {
				got := decomp.EstimateCofactorSize(m, f, v, val)
				if want := refEstimateCofactorSize(m, f, v, val); got != want {
					t.Fatalf("%s: EstimateCofactorSize(f%d, x%d=%v) = %d, reference %d", stage, i, v, val, got, want)
				}
			}
		}
		cfg := decomp.DisjointConfig{MaxCandidates: 64, MaxPoints: 6, MinSubtree: 2}
		got, want := decomp.DisjointPoints(m, f, cfg), refDisjointPoints(m, f, cfg)
		if !samePoints(got, want) {
			t.Fatalf("%s: DisjointPoints(f%d) = %v, reference %v", stage, i, got, want)
		}
		points += len(got)
	}
	if points == 0 {
		t.Fatalf("%s: no function produced a disjoint decomposition point", stage)
	}
}

// TestDecompWalksMatchReference checks EstimateCofactorSize and
// DisjointPoints against their map-based versions on oracle-generated
// functions: fresh, after GC has recycled node indices, and after
// sifting.
func TestDecompWalksMatchReference(t *testing.T) {
	const nvars = 12
	m := bdd.NewWithConfig(nvars, bdd.Config{InitialNodes: 256})
	g := oracle.NewGen(5, nvars)
	build := func(k int) []bdd.Ref {
		fs := make([]bdd.Ref, k)
		for i := range fs {
			fs[i] = g.Expr(7).Build(m)
		}
		return fs
	}
	fs := build(10)
	checkDecompWalks(t, m, "fresh", fs)
	for _, f := range fs[:5] {
		m.Deref(f)
	}
	if m.GarbageCollect() == 0 {
		t.Fatal("GarbageCollect reclaimed nothing")
	}
	fs = append(fs[5:], build(5)...)
	checkDecompWalks(t, m, "after GC", fs)
	m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
	checkDecompWalks(t, m, "after sifting", fs)
}
