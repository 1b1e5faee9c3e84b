package main

import (
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/decomp"
	"bddkit/internal/model"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
)

// The corpus workload runs the Tables 2–4 protocol over a fixed set of
// functions: the six approximation operators at the Table 2/3 settings,
// the four decomposition selectors, and exact minterm scoring. Every
// function appears once, because approx and decomp memoize in the shared
// computed cache and a repeated function would measure cache hits.

// Corpus sizing, between bench.SmallCorpus and bench.PaperCorpus.
const (
	corpusMinNodes   = 400 // size filter for multiplier bits
	corpusRandInputs = 30
	corpusRandGates  = 200
	// The corpus takes the first corpusRandFns random-cone outputs whose
	// BDDs fall within a size band. BDD sizes of random logic are
	// heavy-tailed; a fixed count within a band keeps the workload's size
	// from swinging with the seed.
	corpusRandFns      = 16
	corpusRandMinNodes = 500
	corpusRandMaxNodes = 1500
)

var (
	corpusMultWidths = []int{7, 8}
	corpusHWBSizes   = []int{16, 18, 20, 22, 24}
	// The gauntlet fixtures join unfiltered, as in bench.Build.
	corpusGauntlet = []gauntlet.Params{
		{Family: gauntlet.FamilyQueens, N: 6},
		{Family: gauntlet.FamilyLife, Rows: 3, Cols: 3},
		{Family: gauntlet.FamilyHamiltonGrid, Rows: 2, Cols: 3},
		{Family: gauntlet.FamilyHamiltonKnight, Rows: 3, Cols: 3},
		{Family: gauntlet.FamilyEquivAdder, N: 8, Fault: true},
	}
)

// corpusFn is one corpus function and the manager that owns it.
type corpusFn struct {
	name   string
	m      *bdd.Manager
	f      bdd.Ref
	nodes  int
	seeded bool // a random cone: adds work; the per-item metrics skip it
}

// mix derives the i-th sub-seed of a workload seed (splitmix64), so each
// generated input gets its own stream.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

// buildCorpus generates the corpus: multiplier bits in both variable
// orders, hidden-weighted-bit functions, the gauntlet fixtures, and
// random-logic cones seeded from the workload seed.
func buildCorpus(seed int64, t *tracer, parent *span) ([]corpusFn, error) {
	var fns []corpusFn
	keep := func(name string, m *bdd.Manager, f bdd.Ref, lo, hi int, seeded bool) {
		sz := m.DagSize(f)
		if sz < lo || (hi > 0 && sz > hi) {
			m.Deref(f)
			return
		}
		fns = append(fns, corpusFn{name: name, m: m, f: f, nodes: sz, seeded: seeded})
	}
	compile := func(nl *circuit.Netlist, static bool) (*circuit.Compiled, error) {
		var c *circuit.Compiled
		var err error
		t.timed(parent, "circuit.compile", func() {
			c, err = circuit.Compile(nl, circuit.CompileOptions{SkipNextVars: true, StaticOrder: static})
		}, obs.Str("netlist", nl.Name))
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", nl.Name, err)
		}
		return c, nil
	}
	generate := func(name string, fn func()) { t.timed(parent, "model.generate", fn, obs.Str("model", name)) }

	for _, width := range corpusMultWidths {
		for _, static := range []bool{false, true} {
			var nl *circuit.Netlist
			generate("mult", func() { nl = model.MultiplierNetlist(width) })
			c, err := compile(nl, static)
			if err != nil {
				return nil, err
			}
			for i, f := range c.Outputs {
				keep(fmt.Sprintf("%s/%s/static=%v", nl.Name, nl.OutName[i], static), c.M, c.M.Ref(f), corpusMinNodes, 0, false)
			}
			c.Release()
		}
	}
	for _, n := range corpusHWBSizes {
		m := bdd.New(n)
		vars := make([]int, n)
		for i := range vars {
			vars[i] = i
		}
		var f bdd.Ref
		generate("hwb", func() { f = model.HWB(m, vars) })
		keep(fmt.Sprintf("hwb%d", n), m, f, 0, 0, false)
	}
	for _, p := range corpusGauntlet {
		var m *bdd.Manager
		var f bdd.Ref
		var err error
		generate("gauntlet", func() { m, f, err = gauntlet.New(p) })
		if err != nil {
			return nil, fmt.Errorf("gauntlet %s: %w", p.Name(), err)
		}
		keep("gauntlet/"+p.Name(), m, f, 0, 0, false)
	}
	// All random cones share one manager over their common inputs, as the
	// outputs of one circuit collection would; a manager per cone would
	// hold a computed cache per cone and multiply the footprint.
	picks, err := chooseCones(seed)
	if err != nil {
		return nil, err
	}
	rm := bdd.New(corpusRandInputs)
	fixed := len(fns)
	for _, pk := range picks {
		var nl *circuit.Netlist
		generate("randlogic", func() { nl = randomCone(seed, pk.cone) })
		nl = pruneTo(nl, pk.outs)
		var vals []bdd.Ref
		t.timed(parent, "circuit.compile", func() { vals, err = evalCone(rm, nl) }, obs.Str("netlist", nl.Name))
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", nl.Name, err)
		}
		for _, j := range pk.outs {
			keep(nl.Name+"/"+nl.OutName[j], rm, rm.Ref(vals[nl.Outputs[j]]), corpusRandMinNodes, corpusRandMaxNodes, true)
		}
		for _, v := range vals {
			rm.Deref(v)
		}
	}
	if n := len(fns) - fixed; n != corpusRandFns {
		return nil, fmt.Errorf("random cones: %d functions in the size band, want %d", n, corpusRandFns)
	}
	return fns, nil
}

// conePick names a random cone and the outputs the corpus keeps from it.
type conePick struct {
	cone int
	outs []int
}

var (
	conePicksMu sync.Mutex
	conePicks   = make(map[int64][]conePick)
)

// chooseCones finds the first corpusRandFns random-cone outputs of the
// seed whose BDDs fall within the size band. The search compiles every
// cone it visits, and how many it visits, and how large they grow, swing
// with the seed; so it runs once per seed, outside the passes, and each
// pass's set-up compiles only the chosen outputs' fan-in.
func chooseCones(seed int64) ([]conePick, error) {
	conePicksMu.Lock()
	defer conePicksMu.Unlock()
	if picks, ok := conePicks[seed]; ok {
		return picks, nil
	}
	rm := bdd.New(corpusRandInputs)
	var picks []conePick
	found := 0
	for i := 0; found < corpusRandFns; i++ {
		if i == 50*corpusRandFns {
			return nil, fmt.Errorf("random cones: only %d functions in the size band after %d cones", found, i)
		}
		nl := randomCone(seed, i)
		vals, err := evalCone(rm, nl)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", nl.Name, err)
		}
		pk := conePick{cone: i}
		for j, o := range nl.Outputs {
			if sz := rm.DagSize(vals[o]); found < corpusRandFns && sz >= corpusRandMinNodes && sz <= corpusRandMaxNodes {
				pk.outs = append(pk.outs, j)
				found++
			}
		}
		if len(pk.outs) > 0 {
			picks = append(picks, pk)
		}
		for _, v := range vals {
			rm.Deref(v)
		}
	}
	conePicks[seed] = picks
	return picks, nil
}

func randomCone(seed int64, i int) *circuit.Netlist {
	return model.RandomLogicNetlist(model.RandomLogicConfig{
		Inputs: corpusRandInputs, Gates: corpusRandGates, Seed: mix(seed, i),
	})
}

// evalCone builds every signal of a combinational netlist in m, its
// inputs mapped to m's variables in declaration order.
func evalCone(m *bdd.Manager, nl *circuit.Netlist) ([]bdd.Ref, error) {
	input := make(map[circuit.Sig]int, len(nl.Inputs))
	for k, s := range nl.Inputs {
		input[s] = k
	}
	return circuit.EvalNetlistBDD(m, nl, func(s circuit.Sig, _ circuit.Op) bdd.Ref { return m.IthVar(input[s]) })
}

// pruneTo returns a copy of nl in which every gate outside the fan-in of
// the given outputs is a constant, so building it costs only that fan-in.
func pruneTo(nl *circuit.Netlist, outs []int) *circuit.Netlist {
	live := make([]bool, len(nl.Nodes))
	var mark func(s circuit.Sig)
	mark = func(s circuit.Sig) {
		if live[s] {
			return
		}
		live[s] = true
		for _, in := range nl.Nodes[s].In {
			mark(in)
		}
	}
	for _, j := range outs {
		mark(nl.Outputs[j])
	}
	cp := *nl
	cp.Nodes = slices.Clone(nl.Nodes)
	for s, nd := range cp.Nodes {
		if !live[s] && nd.Op != circuit.OpInput {
			cp.Nodes[s] = circuit.Node{Op: circuit.OpConst0, Name: nd.Name}
		}
	}
	return &cp
}

// approxOps are the six operators of Tables 2 and 3 at the paper's
// settings; th is |RUA(f)|, the HB/SP threshold of Table 2 and the SP
// threshold inside C2 (Table 3).
var approxOps = []struct {
	name string
	run  func(m *bdd.Manager, f bdd.Ref, th int) bdd.Ref
}{
	{"rua", func(m *bdd.Manager, f bdd.Ref, _ int) bdd.Ref { return approx.RemapUnderApprox(m, f, 0, 1.0) }},
	{"hb", func(m *bdd.Manager, f bdd.Ref, th int) bdd.Ref { return approx.HeavyBranch(m, f, th) }},
	{"sp", func(m *bdd.Manager, f bdd.Ref, th int) bdd.Ref { return approx.ShortPaths(m, f, th) }},
	{"ua", func(m *bdd.Manager, f bdd.Ref, _ int) bdd.Ref { return approx.UnderApprox(m, f, 0, 0.5) }},
	{"c1", func(m *bdd.Manager, f bdd.Ref, _ int) bdd.Ref { return approx.Compound1(m, f, 0, 1.0) }},
	{"c2", func(m *bdd.Manager, f bdd.Ref, th int) bdd.Ref { return approx.Compound2(m, f, th, 1.0) }},
}

func runCorpus(seed int64, t *tracer, p *pass) (err error) {
	runtime.LockOSThread() // call latencies are read from this thread's CPU clock
	defer runtime.UnlockOSThread()
	root := t.begin(nil, "corpus.pass", obs.I64("seed", seed))
	defer root.end()

	// The cone search is input selection, not set-up: it runs once per
	// seed, before the first pass's set-up starts.
	if _, err := chooseCones(seed); err != nil {
		return err
	}
	p.setup.start()
	setup := t.begin(root, "corpus.setup")
	fns, err := buildCorpus(seed, t, setup)
	setup.end(obs.Int("functions", len(fns)))
	p.setup.stop()
	if err != nil {
		return err
	}

	var kc kernelCounters
	before := make(map[*bdd.Manager]bdd.Stats)
	for _, fn := range fns {
		if _, ok := before[fn.m]; !ok {
			before[fn.m] = fn.m.Stats()
		}
	}
	for _, fn := range fns {
		p.fingerprint(fn.name, fn.nodes)
	}
	approxCalls, countCalls := 0, 0
	for _, fn := range fns {
		if err := corpusItem(fn, t, root, p, &approxCalls, &countCalls); err != nil {
			return fmt.Errorf("corpus function %s: %w", fn.name, err)
		}
	}
	if t != nil {
		for m, st := range before {
			kc.add(st, m.Stats())
		}
		kc.report(p)
		p.setLayer("approx.calls", float64(approxCalls))
		p.setLayer("count.calls", float64(countCalls))
	}
	for _, fn := range fns {
		fn.m.Deref(fn.f)
	}
	return nil
}

// corpusItem runs the protocol on one function: timed operator calls,
// then the untimed checks. The per-item metrics (latencies, degraded
// answers, quality) are scored on the seed-independent functions only:
// on random logic the RUA density moves by a quarter and the median call
// cost by a fifth from one seed to the next.
func corpusItem(fn corpusFn, t *tracer, root *span, p *pass, approxCalls, countCalls *int) (err error) {
	m, f := fn.m, fn.f
	score := !fn.seeded
	item := t.begin(root, "corpus.fn", obs.Str("fn", fn.name), obs.Int("nodes", fn.nodes))
	defer item.end()
	defer func() {
		if r := recover(); r != nil {
			p.cpu.stop()
			p.failed++
			p.unexpected++
			err = fmt.Errorf("operator panicked: %v", r)
		}
	}()
	call := func(name string, lat *[]float64, fn func(s *span)) {
		s := t.begin(item, name)
		t0 := threadCPU()
		fn(s)
		if score {
			*lat = append(*lat, ms(threadCPU()-t0))
		}
		s.end()
		p.attempted++
	}

	p.cpu.start()
	results := make([]bdd.Ref, len(approxOps))
	th := 0
	for i, op := range approxOps {
		call("approx."+op.name, &p.writes, func(*span) {
			results[i] = op.run(m, f, th)
			if i == 0 {
				th = m.DagSize(results[0])
			}
		})
		*approxCalls++
	}
	var band, disjoint, cof decomp.Pair
	var mcm []bdd.Ref
	call("decomp.band_selector", &p.reads, func(s *span) {
		var pts decomp.Points
		t.timed(s, "decomp.band_points", func() { pts = decomp.BandPoints(m, f, decomp.DefaultBandConfig()) })
		t.timed(s, "decomp.band", func() { band = decomp.Decompose(m, f, pts) })
	})
	call("decomp.disjoint_selector", &p.reads, func(s *span) {
		var pts decomp.Points
		t.timed(s, "decomp.disjoint_points", func() { pts = decomp.DisjointPoints(m, f, decomp.DefaultDisjointConfig()) })
		t.timed(s, "decomp.disjoint", func() { disjoint = decomp.Decompose(m, f, pts) })
	})
	call("decomp.cofactor", &p.reads, func(*span) { cof = decomp.Cofactor(m, f) })
	call("decomp.mcmillan", &p.reads, func(*span) { mcm = decomp.McMillan(m, f) })
	counts := make([]*big.Int, len(results)+1)
	for i, g := range append([]bdd.Ref{f}, results...) {
		var cerr error
		call("count.minterms", &p.reads, func(*span) { counts[i], cerr = count.Minterms(m, g, m.NumVars()) })
		*countCalls++
		if cerr != nil {
			p.cpu.stop()
			return fmt.Errorf("count: %w", cerr)
		}
	}
	p.cpu.stop()

	// Checks: every under-approximation implies f and is no larger;
	// every conjunctive pair recomposes f exactly.
	for i, g := range results {
		if !m.Leq(g, f) {
			return fmt.Errorf("%s result does not imply f", approxOps[i].name)
		}
		if sz := m.DagSize(g); sz > fn.nodes {
			return fmt.Errorf("%s result has %d nodes, more than |f| = %d", approxOps[i].name, sz, fn.nodes)
		}
		if counts[i+1].Cmp(counts[0]) > 0 {
			return fmt.Errorf("%s result has more minterms than f", approxOps[i].name)
		}
		if score {
			p.degradable++
			if g != f {
				p.degraded++
			}
		}
	}
	for _, pr := range []struct {
		name string
		pair decomp.Pair
	}{{"band", band}, {"disjoint", disjoint}, {"cofactor", cof}} {
		g := m.And(pr.pair.G, pr.pair.H)
		ok := g == f
		m.Deref(g)
		if !ok {
			return fmt.Errorf("%s factors do not recompose f", pr.name)
		}
	}
	all := decomp.ConjoinAll(m, mcm)
	ok := all == f
	m.Deref(all)
	if !ok {
		return fmt.Errorf("mcmillan factors do not recompose f")
	}

	if score {
		// A constant-zero function (hamilton-knight3x3 has no cycles) has
		// no density to score.
		if mt, _ := new(big.Float).SetInt(counts[1]).Float64(); mt > 0 {
			p.densities = append(p.densities, mt/float64(m.DagSize(results[0])))
		}
		p.factors = append(p.factors, float64(max(m.DagSize(band.G), m.DagSize(band.H))))
	}

	for _, g := range results {
		m.Deref(g)
	}
	for _, pr := range []decomp.Pair{band, disjoint, cof} {
		pr.Deref(m)
	}
	for _, g := range mcm {
		m.Deref(g)
	}
	return nil
}
