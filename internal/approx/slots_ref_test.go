package approx_test

import (
	"testing"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/oracle"
)

// TestNodesSavedMatchesReference checks RUA's domination count (Figure 4)
// against the map-based walk on oracle-generated functions: fresh, after
// GC has recycled node indices, and after sifting.
func TestNodesSavedMatchesReference(t *testing.T) {
	const nvars = 12
	m := bdd.NewWithConfig(nvars, bdd.Config{InitialNodes: 256})
	g := oracle.NewGen(17, nvars)
	build := func(k int) []bdd.Ref {
		fs := make([]bdd.Ref, k)
		for i := range fs {
			fs[i] = g.Expr(7).Build(m)
		}
		return fs
	}
	check := func(stage string, fs []bdd.Ref) {
		t.Helper()
		for i, f := range fs {
			if f.IsConstant() {
				continue
			}
			if err := approx.CheckNodesSaved(m, f); err != nil {
				t.Fatalf("%s: f%d: %v", stage, i, err)
			}
		}
	}
	fs := build(10)
	check("fresh", fs)
	for _, f := range fs[:5] {
		m.Deref(f)
	}
	if m.GarbageCollect() == 0 {
		t.Fatal("GarbageCollect reclaimed nothing")
	}
	fs = append(fs[5:], build(5)...)
	check("after GC", fs)
	m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
	check("after sifting", fs)
}
