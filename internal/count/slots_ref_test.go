package count_test

import (
	"math/big"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/oracle"
)

// refMinterms is the map-keyed exact counting sweep that count.Minterms
// replaced with a SlotTable, kept as an independent check: memo holds the
// count of every sub-function over the levels strictly below its root.
func refMinterms(m *bdd.Manager, f bdd.Ref, nVars int) *big.Int {
	n := m.NumVars()
	level := func(r bdd.Ref) int { return min(m.Level(r), n) }
	memo := map[bdd.Ref]*big.Int{bdd.One: big.NewInt(1), bdd.Zero: big.NewInt(0)}
	var rec func(r bdd.Ref) *big.Int
	rec = func(r bdd.Ref) *big.Int {
		if c, ok := memo[r]; ok {
			return c
		}
		hi, lo := m.Hi(r), m.Lo(r)
		c := new(big.Int).Lsh(rec(hi), uint(level(hi)-level(r)-1))
		c.Add(c, new(big.Int).Lsh(rec(lo), uint(level(lo)-level(r)-1)))
		memo[r] = c
		return c
	}
	c := new(big.Int).Lsh(rec(f), uint(level(f)))
	return c.Lsh(c, uint(nVars-n))
}

func checkMinterms(t *testing.T, m *bdd.Manager, stage string, fs []bdd.Ref) {
	t.Helper()
	for i, f := range fs {
		for _, g := range []bdd.Ref{f, f.Complement()} {
			got, err := count.Minterms(m, g, m.NumVars()+3)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMinterms(m, g, m.NumVars()+3); got.Cmp(want) != 0 {
				t.Fatalf("%s: Minterms(f%d) = %v, reference %v", stage, i, got, want)
			}
		}
	}
}

// TestMintermsMatchReference checks count.Minterms against the map-based
// sweep on oracle-generated functions: fresh, after GC has recycled node
// indices, and after sifting.
func TestMintermsMatchReference(t *testing.T) {
	const nvars = 12
	m := bdd.NewWithConfig(nvars, bdd.Config{InitialNodes: 256})
	g := oracle.NewGen(23, nvars)
	build := func(k int) []bdd.Ref {
		fs := make([]bdd.Ref, k)
		for i := range fs {
			fs[i] = g.Expr(7).Build(m)
		}
		return fs
	}
	fs := build(10)
	checkMinterms(t, m, "fresh", fs)
	for _, f := range fs[:5] {
		m.Deref(f)
	}
	if m.GarbageCollect() == 0 {
		t.Fatal("GarbageCollect reclaimed nothing")
	}
	fs = append(fs[5:], build(5)...)
	checkMinterms(t, m, "after GC", fs)
	m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
	checkMinterms(t, m, "after sifting", fs)
}
