package main

import (
	"testing"
)

// The determinism self-test: a workload's inputs come from its seed alone,
// so two passes with one seed agree exactly on every quality metric,
// failure and degrade fraction, and (on corpus and reach) on every
// count-type layer metric; another seed gives other inputs that pass
// every correctness check too. Timing metrics are not compared.
//
//	cd perfbench && go test -run Determinism .

// deterministic returns the values a pass must repeat exactly.
func deterministic(p *pass) map[string]float64 {
	return map[string]float64{
		"rua_density_gmean":       gmean(p.densities),
		"decomp_max_factor_gmean": gmean(p.factors),
		"failed_frac":             p.failedFrac(),
		"degraded_frac":           p.degradedFrac(),
		"attempted":               float64(p.attempted),
	}
}

// countLayers are the count-type layer metrics that repeat exactly on the
// single-threaded workloads. (On serve-mix, GC timing inside a tenant
// depends on how the two clients interleave on the shared tenant.)
var countLayers = []string{
	"bdd.unique_lookups", "bdd.cache_lookups", "bdd.gc_count", "bdd.reorder_count",
	"reach.images", "reach.and_exists", "reach.iterations",
}

func runTracedPass(t *testing.T, wl workload, seed int64) *pass {
	t.Helper()
	p := &pass{}
	if err := runOne(wl, seed, &tracer{}, p); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return p
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four passes of every workload")
	}
	for _, name := range []string{"corpus", "reach", "serve-mix"} {
		t.Run(name, func(t *testing.T) {
			wl := workloads[name]
			// As in a traced run, the traced passes follow an untraced
			// one, which also makes any once-per-seed input selection.
			if err := runOne(wl, 1, nil, &pass{}); err != nil {
				t.Fatalf("seed 1: %v", err)
			}
			a := runTracedPass(t, wl, 1)
			b := runTracedPass(t, wl, 1)
			da, db := deterministic(a), deterministic(b)
			for k, v := range da {
				if db[k] != v {
					t.Errorf("seed 1: %s differs between runs: %v vs %v", k, v, db[k])
				}
			}
			if name != "serve-mix" {
				for _, k := range countLayers {
					if a.layer[k] != b.layer[k] {
						t.Errorf("seed 1: layer %s differs between runs: %v vs %v", k, a.layer[k], b.layer[k])
					}
				}
			}
			// A second seed: other inputs, every check still passing.
			c := runTracedPass(t, wl, 2)
			if a.inputs != b.inputs {
				t.Errorf("seed 1 generated different inputs in two runs")
			}
			if c.inputs == a.inputs {
				t.Errorf("seed 2 generated the same inputs as seed 1")
			}
		})
	}
}
