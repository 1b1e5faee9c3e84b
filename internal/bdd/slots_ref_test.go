package bdd_test

import (
	"math"
	"sort"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/oracle"
)

// Map-based reference walks: the per-call node maps the SlotTable walks
// replaced, kept as an independent check of them.

func refDagSize(m *bdd.Manager, fs ...bdd.Ref) int {
	seen := make(map[uint32]struct{})
	var rec func(r bdd.Ref)
	rec = func(r bdd.Ref) {
		if _, ok := seen[r.ID()]; ok {
			return
		}
		seen[r.ID()] = struct{}{}
		if r.IsConstant() {
			return
		}
		rec(m.StructHi(r))
		rec(m.StructLo(r))
	}
	for _, f := range fs {
		rec(f)
	}
	return len(seen)
}

func refSupportVars(m *bdd.Manager, f bdd.Ref) []int {
	seen := make(map[uint32]struct{})
	vars := make(map[int]struct{})
	var rec func(r bdd.Ref)
	rec = func(r bdd.Ref) {
		if _, ok := seen[r.ID()]; ok || r.IsConstant() {
			return
		}
		seen[r.ID()] = struct{}{}
		vars[m.Var(r)] = struct{}{}
		rec(m.StructHi(r))
		rec(m.StructLo(r))
	}
	rec(f)
	out := []int{}
	for v := range vars {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func refMintermFraction(m *bdd.Manager, f bdd.Ref) float64 {
	memo := make(map[uint32]float64)
	var rec func(r bdd.Ref) float64 // fraction of the regular node
	rec = func(r bdd.Ref) float64 {
		if r.IsConstant() {
			return 1
		}
		if p, ok := memo[r.ID()]; ok {
			return p
		}
		ph := rec(m.StructHi(r))
		lo := m.StructLo(r)
		pl := rec(lo)
		if lo.IsComplement() {
			pl = 1 - pl
		}
		p := 0.5*ph + 0.5*pl
		memo[r.ID()] = p
		return p
	}
	p := rec(f)
	if f.IsComplement() {
		return 1 - p
	}
	return p
}

func refCountPath(m *bdd.Manager, f bdd.Ref) float64 {
	memo := make(map[bdd.Ref]float64)
	var rec func(r bdd.Ref) float64
	rec = func(r bdd.Ref) float64 {
		if r == bdd.One {
			return 1
		}
		if r == bdd.Zero {
			return 0
		}
		if v, ok := memo[r]; ok {
			return v
		}
		v := rec(m.Hi(r)) + rec(m.Lo(r))
		memo[r] = v
		return v
	}
	return rec(f)
}

// checkWalks compares every SlotTable walk with its reference on fs.
func checkWalks(t *testing.T, m *bdd.Manager, stage string, fs []bdd.Ref) {
	t.Helper()
	for i, f := range fs {
		if got, want := m.DagSize(f), refDagSize(m, f); got != want {
			t.Fatalf("%s: DagSize(f%d) = %d, reference %d", stage, i, got, want)
		}
		got, want := m.SupportVars(f), refSupportVars(m, f)
		if len(got) != len(want) {
			t.Fatalf("%s: SupportVars(f%d) = %v, reference %v", stage, i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: SupportVars(f%d) = %v, reference %v", stage, i, got, want)
			}
		}
		if got, want := m.MintermFraction(f), refMintermFraction(m, f); got != want {
			t.Fatalf("%s: MintermFraction(f%d) = %v, reference %v", stage, i, got, want)
		}
		if got, want := m.CountPath(f), refCountPath(m, f); got != want {
			t.Fatalf("%s: CountPath(f%d) = %v, reference %v", stage, i, got, want)
		}
	}
	for i := 1; i < len(fs); i++ {
		if got, want := m.SharingSize(fs[:i+1]), refDagSize(m, fs[:i+1]...); got != want {
			t.Fatalf("%s: SharingSize(f0..f%d) = %d, reference %d", stage, i, got, want)
		}
	}
}

func buildAll(m *bdd.Manager, g *oracle.Gen, n, depth int) []bdd.Ref {
	fs := make([]bdd.Ref, n)
	for i := range fs {
		fs[i] = g.Expr(depth).Build(m)
	}
	return fs
}

// TestSlotWalksMatchReference checks DagSize, SharingSize, SupportVars,
// MintermFraction and CountPath against map-based walks on oracle-generated functions:
// fresh, after GC has recycled node indices, and after sifting.
func TestSlotWalksMatchReference(t *testing.T) {
	const nvars = 12
	m := bdd.NewWithConfig(nvars, bdd.Config{InitialNodes: 256})
	g := oracle.NewGen(41, nvars)
	fs := buildAll(m, g, 12, 7)
	checkWalks(t, m, "fresh", fs)

	// Free half the functions, collect, and build new ones into the freed
	// indices.
	gcs := m.Stats().GCs
	for _, f := range fs[:6] {
		m.Deref(f)
	}
	if m.GarbageCollect() == 0 {
		t.Fatal("GarbageCollect reclaimed nothing")
	}
	fs = append(fs[6:], buildAll(m, g, 6, 7)...)
	if m.Stats().GCs == gcs {
		t.Fatal("no garbage collection ran")
	}
	checkWalks(t, m, "after GC", fs)

	m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
	checkWalks(t, m, "after sifting", fs)
}

// TestSlotWalksAcrossEpochWrap drives a manager's table through an epoch
// wrap. The table's first use stamps f0's nodes at epoch 1; the epoch is
// then set to its last value, so the next walk wraps back to epoch 1. If
// the wrap failed to clear stamps, that walk would find f0's nodes already
// present and miscount.
func TestSlotWalksAcrossEpochWrap(t *testing.T) {
	const nvars = 10
	m := bdd.New(nvars)
	fs := buildAll(m, oracle.NewGen(7, nvars), 6, 6)
	want := refDagSize(m, fs[0])
	if got := m.DagSize(fs[0]); got != want {
		t.Fatalf("before wrap: DagSize = %d, reference %d", got, want)
	}
	bdd.SetSlotEpoch(m, math.MaxUint32)
	if got := m.DagSize(fs[0]); got != want {
		t.Fatalf("first walk after wrap: DagSize = %d, reference %d", got, want)
	}
	checkWalks(t, m, "after wrap", fs)
}
