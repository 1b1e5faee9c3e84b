package main

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/decomp"
	"bddkit/internal/model"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

// The reach workload runs the Table 1 protocol: BFS, HD+RUA and HD+SP per
// circuit, each traversal on a fresh manager with dynamic reordering on,
// as bench.RunTable1 does. Image computation (AndExists), sifting and GC
// dominate; frontier subsetting touches approx lightly.

// reachCircuit is one Table 1 row's circuit and method settings.
type reachCircuit struct {
	name     string
	netlist  func(seed int64) *circuit.Netlist
	ruaQual  float64
	spThresh int
	seeded   bool // varies the work; the per-item metrics skip it
}

// reachBudget caps each traversal; every traversal here completes in well
// under a second or two, so tripping it is a failure.
const reachBudget = 2 * time.Minute

// reachRomInstances is how many am2910 variants with a seeded microprogram
// ROM join the fixed rows. They are kept small: the ROM contents change
// the reachable state space by orders of magnitude, and the seed must
// change the inputs without changing the size of the workload much. For
// the same reason the per-item metrics (latencies, degraded subsets,
// quality) are taken on the fixed rows only.
const reachRomInstances = 3

// Model scales sit between bench.Table1Small and bench.Table1Paper.
var reachCircuits = func() []reachCircuit {
	cs := []reachCircuit{
		{"s3330", func(int64) *circuit.Netlist {
			return model.S3330(model.S3330Config{Word: 5, FifoDepth: 3, CrcBits: 6})
		}, 1.0, 200, false},
		{"s1269", func(int64) *circuit.Netlist { return model.S1269(model.S1269Config{Width: 5}) }, 1.0, 200, false},
		{"s5378", func(int64) *circuit.Netlist {
			return model.S5378(model.S5378Config{Units: 3, UnitWidth: 4})
		}, 1.0, 200, false},
		{"am2910", func(int64) *circuit.Netlist {
			return model.Am2910(model.Am2910Config{Width: 4, StackDepth: 2})
		}, 1.0, 100, false},
	}
	for i := 0; i < reachRomInstances; i++ {
		cs = append(cs, reachCircuit{fmt.Sprintf("am2910rom%d", i), func(seed int64) *circuit.Netlist {
			return model.Am2910(model.Am2910Config{
				Width: 3, StackDepth: 3, WithROM: true, RomSeed: mix(seed, 100+i), DitherBits: 1,
			})
		}, 1.0, 100, true})
	}
	return cs
}()

var reachMethods = []string{"bfs", "hd_rua", "hd_sp"}

func runReach(seed int64, t *tracer, p *pass) error {
	runtime.LockOSThread() // step latencies are read from this thread's CPU clock
	defer runtime.UnlockOSThread()
	root := t.begin(nil, "reach.pass", obs.I64("seed", seed))
	defer root.end()
	var kc kernelCounters
	var images, andExists, iters, peakProduct int
	var imageT, subsetT, closureT, unattributed time.Duration
	for _, ck := range reachCircuits {
		var nl *circuit.Netlist
		p.setup.start()
		t.timed(root, "model.generate", func() { nl = ck.netlist(seed) }, obs.Str("model", ck.name))
		p.setup.stop()

		var bfsStates *big.Int
		var bfsReached []byte // BFS's reached set, saved for comparison across managers
		for _, method := range reachMethods {
			item := t.begin(root, "reach.traversal", obs.Str("circuit", ck.name), obs.Str("method", method))
			tv, err := traverse(ck, nl, method, t, item, p)
			item.end()
			if err != nil {
				return fmt.Errorf("%s %s: %w", ck.name, method, err)
			}
			if t != nil {
				kc.add(tv.before, tv.m.Stats())
				st := tv.res.Stats
				images += st.Images
				andExists += st.AndExists
				iters += tv.res.Iterations
				peakProduct = max(peakProduct, st.PeakProduct)
				imageT += st.ImageTime
				subsetT += st.SubsetTime - tv.extra
				closureT += st.ClosureTime
				// The density scoring is in both Elapsed and SubsetTime.
				unattributed += tv.res.Elapsed - st.ImageTime - st.SubsetTime - st.ClosureTime
			}
			err = checkTraversal(tv, method, !ck.seeded, &bfsStates, &bfsReached, p)
			tv.release()
			if err != nil {
				return fmt.Errorf("%s %s: %w", ck.name, method, err)
			}
		}
	}
	if t != nil {
		kc.report(p)
		p.setLayer("reach.images", float64(images))
		p.setLayer("reach.and_exists", float64(andExists))
		p.setLayer("reach.iterations", float64(iters))
		p.setLayer("reach.peak_product_nodes", float64(peakProduct))
		p.setLayer("reach.image_s", imageT.Seconds())
		p.setLayer("reach.subset_s", subsetT.Seconds())
		p.setLayer("reach.closure_s", closureT.Seconds())
		p.setLayer("reach.unattributed_s", unattributed.Seconds())
	}
	return nil
}

// traversal is one finished traversal and the manager that ran it.
type traversal struct {
	c      *circuit.Compiled
	tr     *reach.TR
	m      *bdd.Manager
	before bdd.Stats // manager counters when the timed phase began
	res    reach.Result
	extra  time.Duration // wall time the benchmark spent inside the subsetter (density scoring)
}

func (tv *traversal) release() {
	tv.m.Deref(tv.res.Reached)
	tv.tr.Release()
	tv.c.Release()
}

// traverse compiles the circuit and builds its transition relation
// (set-up), then runs one traversal (timed). The HD frontier subsetter is
// wrapped so each subset call and each step between two of them is timed
// from outside: subset calls are the workload's reads, image steps its
// writes.
func traverse(ck reachCircuit, nl *circuit.Netlist, method string, t *tracer, item *span, p *pass) (*traversal, error) {
	tv := &traversal{}
	var err error
	p.setup.start()
	t.timed(item, "circuit.compile", func() {
		tv.c, err = circuit.Compile(nl, circuit.CompileOptions{AutoReorder: true})
	})
	if err == nil {
		tv.m = tv.c.M
		t.timed(item, "reach.tr_build", func() { tv.tr, err = reach.NewTR(tv.c, reach.DefaultTROptions()) })
	}
	p.setup.stop()
	if err != nil {
		if tv.c != nil {
			tv.c.Release()
		}
		return nil, err
	}
	tv.before = tv.m.Stats()

	nState := len(tv.tr.StateVars)
	score := !ck.seeded
	var last time.Duration // thread CPU at the end of the previous subset call (or traversal start)
	var sp *span           // the traversal call's span, parent of the subset calls
	wrap := func(name string, inner reach.Subsetter, scoreDensity bool) reach.Subsetter {
		return func(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref {
			t0 := threadCPU()
			s := t.begin(sp, "approx."+name)
			g := inner(m, f, threshold)
			s.end()
			end := threadCPU()
			if score {
				p.writes = append(p.writes, ms(t0-last))
				p.reads = append(p.reads, ms(end-t0))
				p.degradable++
				if g != f {
					p.degraded++
				}
			}
			last = end
			if scoreDensity {
				p.cpu.stop()
				d0 := time.Now()
				ds := t.begin(sp, "bench.density")
				d := math.Ldexp(m.MintermFraction(g), nState) / float64(m.DagSize(g))
				ds.end()
				tv.extra += time.Since(d0)
				p.cpu.start()
				if d > 0 {
					p.densities = append(p.densities, d)
				}
				last = threadCPU()
			}
			return g
		}
	}

	p.attempted++
	p.cpu.start()
	last = threadCPU()
	sp = t.begin(item, "reach."+method)
	opts := reach.Options{Budget: reachBudget}
	switch method {
	case "bfs":
		tv.res = tv.tr.BFS(tv.c.Init, opts)
	case "hd_rua":
		opts.Subset = wrap("rua", reach.RUASubsetter(ck.ruaQual), score)
		tv.res = tv.tr.HighDensity(tv.c.Init, opts)
	case "hd_sp":
		opts.Subset = wrap("sp", reach.SPSubsetter(), false)
		opts.Threshold = ck.spThresh
		tv.res = tv.tr.HighDensity(tv.c.Init, opts)
	}
	sp.end(obs.Int("iterations", tv.res.Iterations))
	if method != "bfs" && score {
		// The closing step: last subset call to fixpoint.
		p.writes = append(p.writes, ms(threadCPU()-last))
	}
	p.cpu.stop()
	return tv, nil
}

// checkTraversal verifies a traversal: it completed, and BFS, HD+RUA and
// HD+SP reach the same states. The BFS reached set is saved and loaded
// into the HD managers to compare the sets themselves, not just their
// counts. The BFS set's Band decomposition is scored and checked too.
func checkTraversal(tv *traversal, method string, score bool, bfsStates **big.Int, bfsReached *[]byte, p *pass) error {
	res := tv.res
	if !res.Completed {
		p.failed++
		p.unexpected++
		return fmt.Errorf("traversal did not complete (abort %q)", res.Abort)
	}
	if res.StatesExact == nil {
		return fmt.Errorf("no exact state count")
	}
	m := tv.m
	if method == "bfs" {
		*bfsStates = res.StatesExact
		p.fingerprint(res.StatesExact.String(), res.Nodes)
		var buf bytes.Buffer
		if err := m.Save(&buf, []string{"reached"}, []bdd.Ref{res.Reached}); err != nil {
			return fmt.Errorf("save reached set: %w", err)
		}
		*bfsReached = buf.Bytes()
		pair := decomp.Decompose(m, res.Reached, decomp.BandPoints(m, res.Reached, decomp.DefaultBandConfig()))
		g := m.And(pair.G, pair.H)
		ok := g == res.Reached
		m.Deref(g)
		if score {
			p.factors = append(p.factors, float64(max(m.DagSize(pair.G), m.DagSize(pair.H))))
		}
		pair.Deref(m)
		if !ok {
			return fmt.Errorf("band factors of the reached set do not recompose it")
		}
		return nil
	}
	if res.StatesExact.Cmp(*bfsStates) != 0 {
		return fmt.Errorf("reached %v states, BFS reached %v", res.StatesExact, *bfsStates)
	}
	roots, err := m.Load(bytes.NewReader(*bfsReached))
	if err != nil {
		return fmt.Errorf("load BFS reached set: %w", err)
	}
	same := roots["reached"] == res.Reached
	m.Deref(roots["reached"])
	if !same {
		return fmt.Errorf("reached set differs from BFS's")
	}
	return nil
}
