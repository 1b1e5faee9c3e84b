package bdd

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSaveGolden pins Save's byte stream for a fixed multi-root forest:
// shared subgraphs, complemented else arcs, complemented and constant
// roots, and a root that is another root's complement. bddserve snapshots
// are Save streams, so any change to the node numbering shows up here.
func TestSaveGolden(t *testing.T) {
	m := New(6)
	x := func(i int) Ref { return m.IthVar(i) }
	f := m.Xor(m.And(x(0), x(1)), x(2))             // complemented else arcs
	g := m.Or(f.Complement(), m.And(x(3), x(4)))    // shares f's nodes
	h := m.ITE(x(1), f, m.Xor(x(3), x(5)))          // shares f below x1
	k := m.And(m.Or(x(2), x(5)), m.Xor(x(4), x(5))) // shares x4/x5 with g and h
	names := []string{"f", "g", "h", "nf", "k", "one", "zero"}
	roots := []Ref{f, g, h, f.Complement(), k, One, Zero}

	var buf bytes.Buffer
	if err := m.Save(&buf, names, roots); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "save_forest.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Save output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}

	// The stream must also load back to the same functions.
	m2 := New(0)
	loaded, err := m2.Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		a, b := truthTable(m, roots[i], 6), truthTable(m2, loaded[name], 6)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("root %q differs at minterm %d after reload", name, j)
			}
		}
	}
}
