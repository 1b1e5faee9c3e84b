// Command perfbench is bddkit's benchmark: one command that generates a
// workload's inputs from a seed, drives the library through its public
// functions for a fixed number of seconds, checks every answer, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) by name with their units. The last line of standard output is
// the JSON result. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload runs one pass of fixed work: set-up, the timed phase, and the
// correctness checks. It returns an error naming the first item whose
// output is wrong.
type workload func(seed int64, t *tracer, p *pass) error

var workloads = map[string]workload{
	"corpus":    runCorpus,
	"reach":     runReach,
	"serve-mix": runServeMix,
}

// pass is what one pass of a workload measured. Every pass of a run does
// the same work on the same inputs, so the deterministic fields repeat
// exactly from pass to pass.
type pass struct {
	setup stopwatch // CPU building the inputs
	cpu   stopwatch // CPU of the timed phase

	attempted int // items attempted (operator calls, traversals, requests)
	failed    int // user-visible failures among them
	// unexpected counts outcomes that break the workload's own contract
	// (an expected refusal is a failure but not unexpected).
	unexpected int

	degraded   int // approximate answers ...
	degradable int // ... out of this many answers

	reads, writes []float64 // latencies, ms: thread CPU in corpus and reach, wall time in serve-mix

	densities []float64 // per-function RUA density, minterms/node
	factors   []float64 // per-function larger Band factor, nodes

	inputs uint64 // fingerprint of the generated inputs

	// Traced passes only.
	layer      map[string]float64   // per-layer counters and times
	layerLat   map[string][]float64 // per-layer latency samples, ms
	traceJSONL []byte
}

// fingerprint folds a description of one generated input into p.inputs.
func (p *pass) fingerprint(parts ...any) {
	h := fnv.New64a()
	fmt.Fprint(h, p.inputs, parts)
	p.inputs = h.Sum64()
}

// failedFrac and degradedFrac are add-one (rule-of-succession)
// estimates, positive even when nothing failed or every answer is exact.
func (p *pass) failedFrac() float64 { return float64(p.failed+1) / float64(p.attempted+2) }

func (p *pass) degradedFrac() float64 { return float64(p.degraded+1) / float64(p.degradable+2) }

func (p *pass) setLayer(name string, v float64) {
	if p.layer == nil {
		p.layer = make(map[string]float64)
	}
	p.layer[name] = v
}

func (p *pass) addLat(name string, v float64) {
	if p.layerLat == nil {
		p.layerLat = make(map[string][]float64)
	}
	p.layerLat[name] = append(p.layerLat[name], v)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: corpus, reach or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "how long to measure; whole passes run until it is reached")
	trace := flag.Int("trace", 0, "1 = traced run: report per-layer metrics and write the span trace")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		fail("unknown workload %q (want corpus, reach or serve-mix)", *name)
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	// Two threads at most: the serial engine (Workers=1, the default) on
	// a 2-CPU box; serve-mix uses the second for its other client.
	runtime.GOMAXPROCS(2)

	passes, err := runPasses(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fail("%s seed %d: %v", *name, *seed, err)
	}

	var ms *metrics
	if *trace == 1 {
		ms, err = layerMetrics(passes)
		if err == nil {
			err = writeTrace(*name, *seed, passes)
		}
	} else {
		ms, err = endToEnd(passes)
	}
	if err != nil {
		fail("%s seed %d: %v", *name, *seed, err)
	}

	first := passes[0]
	res := result{Correct: true, Attempted: first.attempted, Failed: first.unexpected, Metrics: ms.byKey}
	fmt.Printf("workload %s seed %d: %d passes (%d traced)\n", *name, *seed, len(passes), countTraced(passes))
	for _, k := range ms.order {
		m := ms.byKey[k]
		fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runPasses repeats the workload's fixed work until the measuring time is
// used up. A traced run alternates untraced and traced passes, so the
// tracing overhead is measured within one run.
func runPasses(wl workload, seed int64, budget time.Duration, traced bool) ([]*pass, error) {
	start := time.Now()
	var out []*pass
	all := &tracer{} // one tracer, so span ids stay unique across passes
	for i := 0; ; i++ {
		// Free the previous pass's managers first, so the peak RSS is one
		// pass's footprint and not an accident of GC timing.
		runtime.GC()
		p := &pass{}
		var t *tracer
		if traced && i%2 == 1 {
			t = all
		}
		if err := runOne(wl, seed, t, p); err != nil {
			return nil, err
		}
		if t != nil {
			p.traceJSONL = t.drain()
			for name, total := range spanTotals(p.traceJSONL) {
				p.setLayer("span:"+name, total)
			}
		}
		out = append(out, p)
		kind := "pass"
		if t != nil {
			kind = "traced pass"
		}
		fmt.Fprintf(os.Stderr, "%s %d: setup %.3f s cpu, timed %.3f s cpu, %d attempted, %d failed\n",
			kind, i, p.setup.seconds(), p.cpu.seconds(), p.attempted, p.failed)
		enough := !traced || i >= 1
		if enough && time.Since(start) >= budget {
			return out, nil
		}
	}
}

// runOne runs one pass; traced passes also count GC and reordering events
// through the bdd observer hook and Go runtime statistics.
func runOne(wl workload, seed int64, t *tracer, p *pass) error {
	if t == nil {
		return wl(seed, nil, p)
	}
	mem := startMemCounters()
	ob := installObserver()
	defer ob.uninstall()
	err := wl(seed, t, p)
	mem.finish(p)
	ob.finish(p)
	return err
}

func countTraced(ps []*pass) int {
	n := 0
	for _, p := range ps {
		if p.traceJSONL != nil {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(ps []*pass) (*metrics, error) {
	ms := newMetrics()
	var setup, cpu, failed, degraded, density, factor []float64
	var reads, writes [][]float64
	for _, p := range ps {
		setup = append(setup, p.setup.seconds())
		cpu = append(cpu, p.cpu.seconds())
		failed = append(failed, p.failedFrac())
		degraded = append(degraded, p.degradedFrac())
		density = append(density, gmean(p.densities))
		factor = append(factor, gmean(p.factors))
		reads = append(reads, p.reads)
		writes = append(writes, p.writes)
	}
	ms.set("setup_s", "s", median(setup))
	ms.set("cpu_s", "s", median(cpu))
	ms.set("peak_rss_mb", "MB", peakRSSMB())
	ms.set("failed_frac", "ratio", median(failed))
	ms.set("degraded_frac", "ratio", median(degraded))
	if err := setLatency(ms, "read", reads); err != nil {
		return nil, err
	}
	if err := setLatency(ms, "write", writes); err != nil {
		return nil, err
	}
	ms.set("rua_density_gmean", "minterms/node", median(density))
	ms.set("decomp_max_factor_gmean", "nodes", median(factor))
	// The fractions are add-one estimates and the rest are measured
	// amounts, so a value that is not positive is a broken measurement.
	for _, k := range ms.order {
		if v := ms.byKey[k].Value; !(v > 0) {
			return nil, fmt.Errorf("metric %s is %v; every end-to-end metric must be positive", k, v)
		}
	}
	return ms, nil
}

// setLatency reports the p50 and p99 of one latency class from its
// per-pass samples, printing the sample counts behind them, and enforces
// the percentile guard. Each quantile is taken within a block of passes
// and the median over blocks is reported, so a host-load episode during a
// minority of passes does not move the figure.
func setLatency(ms *metrics, class string, perPass [][]float64) error {
	var p50s, p99s []float64
	samples, fewest := 0, -1
	blocks := latencyBlocks(perPass)
	for _, b := range blocks {
		p50 := quantile(b, 0.50)
		p99 := quantile(b, 0.99)
		p50s = append(p50s, p50.value)
		p99s = append(p99s, p99.value)
		samples += p99.samples
		if fewest < 0 || p99.beyond < fewest {
			fewest = p99.beyond
		}
	}
	fmt.Printf("  %s latency: %d samples in %d blocks of passes; p50 %.4f ms; p99 %.4f ms; each block's p99 has at least %d samples beyond it\n",
		class, samples, len(blocks), median(p50s), median(p99s), max(fewest, 0))
	if fewest < minBeyondP99 {
		return fmt.Errorf("percentile guard: %s p99 has %d samples beyond it (need %d); run longer",
			class, max(fewest, 0), minBeyondP99)
	}
	ms.set(class+"_p50_ms", "ms", median(p50s))
	ms.set(class+"_p99_ms", "ms", median(p99s))
	return nil
}

// latencyBlocks groups consecutive passes into blocks just large enough
// for the percentile guard; a shorter remainder joins the block before
// it. Every pass sends the same calls, so on serve-mix a block is one
// pass, while corpus and reach need a few passes per block.
func latencyBlocks(perPass [][]float64) [][]float64 {
	var blocks [][]float64
	var cur []float64
	for _, xs := range perPass {
		cur = append(cur, xs...)
		if quantile(cur, 0.99).beyond >= minBeyondP99 {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	switch {
	case len(cur) == 0:
	case len(blocks) == 0:
		blocks = [][]float64{cur}
	default:
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	}
	return blocks
}

// layerMetrics computes the per-layer metrics of a traced run: medians
// over the traced passes, latency quantiles over their pooled samples,
// and the tracing overhead against the untraced passes.
func layerMetrics(ps []*pass) (*metrics, error) {
	var traced []*pass
	var plainCPU, tracedCPU []float64
	for _, p := range ps {
		if p.traceJSONL != nil {
			traced = append(traced, p)
			tracedCPU = append(tracedCPU, p.cpu.seconds())
		} else {
			plainCPU = append(plainCPU, p.cpu.seconds())
		}
	}
	med := func(name string) float64 {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.layer[name])
		}
		return median(xs)
	}
	ms := newMetrics()
	for _, l := range perLayer {
		switch {
		case l.lat != "":
			var xs []float64
			for _, p := range traced {
				xs = append(xs, p.layerLat[l.lat]...)
			}
			q := quantile(xs, l.q)
			if q.samples > 0 {
				fmt.Printf("  %s: %d samples, %d beyond\n", l.name, q.samples, q.beyond)
			}
			if l.q == 0.99 && q.samples > 0 && q.beyond < minBeyondP99 {
				return nil, fmt.Errorf("percentile guard: %s has %d samples beyond it (need %d); run longer",
					l.name, q.beyond, minBeyondP99)
			}
			ms.set(l.name, l.unit, q.value)
		case l.span != "":
			ms.set(l.name, l.unit, med("span:"+l.span))
		default:
			ms.set(l.name, l.unit, med(l.name))
		}
	}
	ms.set("trace.overhead_cpu_s", "s", median(tracedCPU)-median(plainCPU))
	return ms, nil
}

// layerDef names one per-layer metric and where its value comes from: a
// span total, a latency class quantile, or a counter set by the workload.
type layerDef struct {
	name, unit string
	span       string  // total seconds of spans with this name
	lat        string  // latency class ...
	q          float64 // ... and its quantile
}

var perLayer = func() []layerDef {
	var ls []layerDef
	counter := func(unit string, names ...string) {
		for _, n := range names {
			ls = append(ls, layerDef{name: n, unit: unit})
		}
	}
	spans := func(names ...string) {
		for _, n := range names {
			ls = append(ls, layerDef{name: n + "_s", unit: "s", span: n})
		}
	}
	counter("count", "bdd.unique_lookups")
	counter("ratio", "bdd.unique_hit_rate")
	counter("count", "bdd.cache_lookups")
	counter("ratio", "bdd.cache_hit_rate")
	counter("count", "bdd.cache_resizes", "bdd.gc_count")
	counter("s", "bdd.gc_s")
	counter("count", "bdd.gc_nodes")
	counter("nodes", "bdd.peak_live_nodes")
	counter("count", "go.gc_cycles")
	counter("s", "go.gc_pause_s")
	counter("MB", "go.alloc_mb")
	counter("count", "bdd.reorder_count")
	counter("s", "bdd.reorder_s")
	spans("circuit.compile", "model.generate", "reach.tr_build")
	spans("reach.bfs", "reach.hd_rua", "reach.hd_sp")
	counter("s", "reach.image_s", "reach.subset_s", "reach.closure_s", "reach.unattributed_s")
	counter("count", "reach.images", "reach.and_exists", "reach.iterations")
	counter("nodes", "reach.peak_product_nodes")
	spans("approx.rua", "approx.hb", "approx.sp", "approx.ua", "approx.c1", "approx.c2")
	counter("count", "approx.calls")
	spans("decomp.band_points", "decomp.disjoint_points",
		"decomp.band", "decomp.disjoint", "decomp.cofactor", "decomp.mcmillan")
	spans("count.minterms")
	counter("count", "count.calls")
	for _, ep := range serveEndpoints {
		ls = append(ls, layerDef{name: "serve." + ep + "_p50_ms", unit: "ms", lat: ep, q: 0.50})
	}
	ls = append(ls,
		layerDef{name: "serve.server_p50_ms", unit: "ms", lat: "server", q: 0.50},
		layerDef{name: "serve.server_p99_ms", unit: "ms", lat: "server", q: 0.99},
		layerDef{name: "serve.transport_p50_ms", unit: "ms", lat: "transport", q: 0.50},
		layerDef{name: "serve.transport_p99_ms", unit: "ms", lat: "transport", q: 0.99},
	)
	counter("count", "serve.sheds", "serve.degrades", "serve.refusals")
	return ls
}()

// writeTrace writes the traced passes' spans as one JSONL file under
// .bench_build, for obscheck and traceview.
func writeTrace(name string, seed int64, ps []*pass) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.jsonl", name, seed))
	var buf bytes.Buffer
	for _, p := range ps {
		buf.Write(p.traceJSONL)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %s (check with cmd/obscheck, roll up with cmd/traceview summary)\n", path)
	return nil
}
