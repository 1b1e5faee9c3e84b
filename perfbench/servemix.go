package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/model"
	"bddkit/internal/obs"
	"bddkit/internal/serve"
)

// The serve-mix workload is a closed loop of two clients, each on its own
// keep-alive connection, driving an in-process serve.Server over loopback
// HTTP with half reads and half writes. Each client owns two tenants: a
// main one and a tight-quota one whose over-budget operations degrade
// (and, or, approx) or are refused with 422 (xor, not, decomp). Per-tenant
// request sequences are therefore deterministic, and so are the failed and
// degraded fractions. One shared tenant with a generous quota takes
// requests from both clients, so admission waits happen there without
// making degrade decisions racy. Writes rebind a rotating set of names, so
// live nodes stay bounded.

const (
	serveClients       = 2
	serveRotatingNames = 6  // result slots per client and tenant
	serveTightHeadroom = 40 // live nodes a tight tenant may add to its circuit
	serveALUWidth      = 8  // main tenants
	serveCmpWidth      = 8  // tight tenants
	serveMultWidth     = 6  // the shared tenant
	sharedOwner        = -1
)

// serveEndpoints are the per-endpoint latency classes (traced runs).
var serveEndpoints = []string{"ops", "approx", "decomp", "count", "sample", "funcs", "snapshot"}

// serveTenant is one tenant of a round, with the local compile of its
// netlist the answers are checked against.
type serveTenant struct {
	id      string
	owner   int // client index, or sharedOwner
	tight   bool
	netlist []byte
	local   *circuit.Compiled
	outputs []string
	exact   map[string]string // output name -> exact minterm count
}

func runServeMix(seed int64, t *tracer, p *pass) error {
	root := t.begin(nil, "serve.pass", obs.I64("seed", seed))
	defer root.end()

	// Inputs and the local answers to check against (not set-up time:
	// this is the checker's work, not the service's).
	tenants, err := serveInputs()
	if err != nil {
		return err
	}
	defer func() {
		for _, tn := range tenants {
			tn.local.Release()
		}
	}()

	p.setup.start()
	setup := t.begin(root, "serve.setup")
	srv := serve.New(serve.Config{DefaultQueueDepth: 16, DefaultDeadline: 30 * time.Second})
	// serve.New arms the process-global quality ledger; the benchmark
	// keeps it disarmed so no run pays for telemetry.
	obs.DisarmLedger()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		p.setup.stop()
		return err
	}
	defer srv.Close()
	base := "http://" + srv.BoundAddr
	setupClient := newServeClient()
	defer setupClient.CloseIdleConnections()
	for _, tn := range tenants {
		if err := createTenant(setupClient, base, tn, t, setup); err != nil {
			p.setup.stop()
			return fmt.Errorf("tenant %s: %w", tn.id, err)
		}
	}
	setup.end()
	p.setup.stop()

	var before *obs.PromScrape
	if t != nil {
		if before, err = scrape(setupClient, base); err != nil {
			return err
		}
	}
	// The timed phase runs on the clients' two connections only.
	setupClient.CloseIdleConnections()

	clients := make([]*serveClientRun, serveClients)
	p.cpu.start()
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = &serveClientRun{
			idx: c, seed: mix(seed, 1000+c), base: base, http: newServeClient(),
			tenants: tenants, t: t,
		}
		wg.Add(1)
		go func(cr *serveClientRun) {
			defer wg.Done()
			cs := t.begin(root, "serve.client", obs.Int("client", cr.idx))
			cr.run(cs)
			cs.end()
		}(clients[c])
	}
	wg.Wait()
	p.cpu.stop()

	densities, factors := make(map[string]float64), make(map[string]float64)
	for _, cr := range clients {
		cr.http.CloseIdleConnections()
		if cr.err != nil {
			return fmt.Errorf("client %d: %w", cr.idx, cr.err)
		}
		if err := cr.checkAnswers(); err != nil {
			return fmt.Errorf("client %d: %w", cr.idx, err)
		}
		p.attempted += cr.attempted
		p.failed += cr.failed
		p.unexpected += cr.unexpected
		p.degraded += cr.degraded
		p.degradable += cr.attempted
		p.reads = append(p.reads, cr.reads...)
		p.writes = append(p.writes, cr.writes...)
		for k, v := range cr.densities {
			densities[k] = v
		}
		for k, v := range cr.factors {
			factors[k] = v
		}
		for k, xs := range cr.lat {
			for _, x := range xs {
				p.addLat(k, x)
			}
		}
	}
	// In output order, so the geometric means repeat to the last bit.
	for _, k := range sortedKeys(densities) {
		p.densities = append(p.densities, densities[k])
	}
	for _, k := range sortedKeys(factors) {
		p.factors = append(p.factors, factors[k])
	}
	for _, tn := range tenants {
		p.fingerprint(tn.id, string(tn.netlist))
	}
	for _, cr := range clients {
		p.fingerprint(cr.inputs.Sum64())
	}
	if t != nil {
		after, err := scrape(setupClient, base)
		if err != nil {
			return err
		}
		serveLayerCounters(before, after, p)
		refusals := 0
		for _, cr := range clients {
			refusals += cr.refusals
		}
		p.setLayer("serve.refusals", float64(refusals))
	}
	return nil
}

// serveInputs builds each tenant's netlist and compiles it locally from
// its serialized text, exactly as the tenant will. The netlists are fixed
// — an ALU for the main tenants, a comparator for the tight ones, a
// multiplier for the shared one — and the seed drives the request
// schedule and operands: with seeded random logic, per-request work and
// the degrade rate swung by a third from one seed to the next.
func serveInputs() ([]*serveTenant, error) {
	var tenants []*serveTenant
	add := func(id string, owner int, tight bool, nl *circuit.Netlist) error {
		var buf bytes.Buffer
		if err := circuit.Write(&buf, nl); err != nil {
			return err
		}
		parsed, err := circuit.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		c, err := circuit.Compile(parsed, circuit.CompileOptions{})
		if err != nil {
			return err
		}
		tn := &serveTenant{id: id, owner: owner, tight: tight, netlist: buf.Bytes(), local: c,
			exact: make(map[string]string)}
		tenants = append(tenants, tn)
		for i, name := range parsed.OutName {
			if c.Outputs[i].IsConstant() {
				continue // sampling needs a satisfiable target
			}
			n, err := count.Minterms(c.M, c.Outputs[i], c.M.NumVars())
			if err != nil {
				return err
			}
			tn.outputs = append(tn.outputs, name)
			tn.exact[name] = n.String()
		}
		return nil
	}
	for c := 0; c < serveClients; c++ {
		if err := add(fmt.Sprintf("c%d-main", c), c, false, model.AluNetlist(serveALUWidth)); err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("c%d-tight", c), c, true, model.ComparatorNetlist(serveCmpWidth)); err != nil {
			return nil, err
		}
	}
	if err := add("shared", sharedOwner, false, model.MultiplierNetlist(serveMultWidth)); err != nil {
		return nil, err
	}
	return tenants, nil
}

func newServeClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// createTenant creates a tenant and uploads its netlist. A tight tenant's
// quota is its compiled circuit's live nodes plus a small headroom.
func createTenant(hc *http.Client, base string, tn *serveTenant, t *tracer, parent *span) error {
	req := serve.CreateTenantRequest{Workers: 1}
	if tn.tight {
		req.Quota = tn.local.M.NodeCount() + serveTightHeadroom
	}
	body, _ := json.Marshal(req) // a struct of ints cannot fail to encode
	var status int
	var err error
	t.timed(parent, "serve.tenant_create", func() {
		status, _, err = do(hc, "PUT", base+"/v1/tenants/"+tn.id, body)
	})
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("create: status %d", status)
	}
	t.timed(parent, "serve.netlist_upload", func() {
		status, _, err = do(hc, "POST", base+"/v1/tenants/"+tn.id+"/netlist", tn.netlist)
	})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("netlist upload: status %d", status)
	}
	return nil
}

func do(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func scrape(hc *http.Client, base string) (*obs.PromScrape, error) {
	status, body, err := do(hc, "GET", base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	return obs.ParsePrometheus(bytes.NewReader(body))
}

// promSum sums a family's samples over every label set (tenants).
func promSum(s *obs.PromScrape, name string) float64 {
	var v float64
	if f, ok := s.Families[name]; ok {
		for _, smp := range f.Samples {
			v += smp.Value
		}
	}
	return v
}

func promMax(s *obs.PromScrape, name string) float64 {
	var v float64
	if f, ok := s.Families[name]; ok {
		for _, smp := range f.Samples {
			v = math.Max(v, smp.Value)
		}
	}
	return v
}

// serveLayerCounters reads the kernel and service counters of the timed
// phase from two /metrics scrapes.
func serveLayerCounters(before, after *obs.PromScrape, p *pass) {
	delta := func(name string) int64 { return int64(promSum(after, name) - promSum(before, name)) }
	kc := kernelCounters{
		uniqueLookups: delta("bdd_unique_lookups"),
		uniqueHits:    delta("bdd_unique_hits"),
		cacheLookups:  delta("bdd_cache_lookups"),
		cacheHits:     delta("bdd_cache_hits"),
		cacheResizes:  delta("bdd_cache_resizes"),
		peakLive:      int(promMax(after, "bdd_peak_live_nodes")),
	}
	kc.report(p)
	p.setLayer("serve.sheds", float64(delta("serve_sheds_total")))
	p.setLayer("serve.degrades", float64(delta("serve_degrades_total")))
}

// serveClientRun is one client's closed loop over one round.
type serveClientRun struct {
	idx     int
	seed    int64
	base    string
	http    *http.Client
	tenants []*serveTenant
	t       *tracer

	attempted, failed, unexpected, degraded, refusals int
	reads, writes                                     []float64
	densities, factors                                map[string]float64 // per scored output
	lat                                               map[string][]float64
	answers                                           []answer
	samples                                           []sampleCheck
	lastOK                                            bool        // the last request succeeded
	inputs                                            hash.Hash64 // fingerprint of the requests sent
	err                                               error
}

// answer is a successful response kept for checking after the timed
// phase, so the checks stay out of cpu_s.
type answer struct {
	reqID string
	rq    request
	raw   json.RawMessage
}

// sampleCheck is a sample answer verified after the timed phase.
type sampleCheck struct {
	tn      *serveTenant
	output  string
	count   string
	samples []string
}

// request is one generated API call.
type request struct {
	tn     *serveTenant
	method string
	path   string
	class  string // endpoint class
	write  bool
	body   any
	// bind is the rotating name a write binds (marked live on success).
	bind string
	// output is the netlist output the request targets ("" = other).
	output string
}

// serveMix is one cycle of a client's request schedule: how many
// requests of each kind go to each of its tenants. A round repeats the
// cycle and shuffles it with the seed, so the seed changes the order and
// the operands but not the mix: 20 reads and 20 writes per cycle.
var serveMix = []struct {
	tenant string // "main", "tight" or "shared"
	kind   string
	n      int
}{
	{"main", "count", 2}, {"main", "sample", 1}, {"main", "decomp", 2}, {"main", "funcs", 1}, {"main", "snapshot", 1},
	{"main", "and", 2}, {"main", "or", 2}, {"main", "xor", 1}, {"main", "approx", 2},
	{"tight", "count", 2}, {"tight", "sample", 1}, {"tight", "decomp", 2}, {"tight", "snapshot", 1},
	{"tight", "and", 2}, {"tight", "or", 1}, {"tight", "xor", 1}, {"tight", "not", 1}, {"tight", "approx", 1},
	{"shared", "count", 3}, {"shared", "sample", 1}, {"shared", "decomp", 2}, {"shared", "funcs", 1},
	{"shared", "and", 2}, {"shared", "or", 2}, {"shared", "xor", 1}, {"shared", "approx", 2},
}

// serveCycles is how many schedule cycles a client runs per round.
const serveCycles = 60

func (cr *serveClientRun) run(parent *span) {
	rng := rand.New(rand.NewSource(cr.seed))
	cr.lat = make(map[string][]float64)
	cr.densities = make(map[string]float64)
	cr.factors = make(map[string]float64)
	cr.inputs = fnv.New64a()
	byRole := make(map[string]*serveTenant)
	for _, tn := range cr.tenants {
		switch {
		case tn.owner == sharedOwner:
			byRole["shared"] = tn
		case tn.owner == cr.idx && tn.tight:
			byRole["tight"] = tn
		case tn.owner == cr.idx:
			byRole["main"] = tn
		}
	}
	type slot struct {
		tn   *serveTenant
		kind string
	}
	var schedule []slot
	for c := 0; c < serveCycles; c++ {
		for _, m := range serveMix {
			for k := 0; k < m.n; k++ {
				schedule = append(schedule, slot{byRole[m.tenant], m.kind})
			}
		}
	}
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })

	var reqs []request
	if cr.idx == 0 {
		// The quality headlines: RUA and Band on every output of the
		// shared tenant's fixed multiplier, once per round.
		sh := byRole["shared"]
		for _, o := range sh.outputs {
			reqs = append(reqs,
				sh.approxRequest("rua", o, 0, ""),
				sh.decompRequest("band", o))
		}
	}
	bound := make(map[*serveTenant][]string) // live rotating names per tenant
	writes := make(map[*serveTenant]int)
	uses := make(map[string]int) // tight-tenant requests per kind
	for i := 0; i < len(reqs)+len(schedule); i++ {
		var rq request
		if i < len(reqs) {
			rq = reqs[i]
		} else {
			sl := schedule[i-len(reqs)]
			bind := ""
			if isWrite(sl.kind) {
				slots := serveRotatingNames
				if sl.tn.tight {
					slots = 1 // a tight tenant's headroom should not depend on its history
				}
				bind = fmt.Sprintf("c%d.w%d", cr.idx, writes[sl.tn]%slots)
				writes[sl.tn]++
			}
			choose := rng.Intn
			if sl.tn.tight {
				// On a tight tenant whether an operation fits depends on
				// its operands. Its k-th request of each kind takes the
				// k-th operand combination, whatever the seed, so the
				// degrade and refusal rates do not drift with the seed.
				key := sl.tn.id + "/" + sl.kind
				c := uses[key]
				uses[key]++
				choose = func(n int) int { v := c % n; c /= n; return v }
			}
			rq = sl.tn.draw(choose, sl.kind, bound[sl.tn], bind)
		}
		if err := cr.send(i, rq, parent); err != nil {
			cr.err = err
			return
		}
		if rq.bind != "" && cr.lastOK && !slices.Contains(bound[rq.tn], rq.bind) {
			bound[rq.tn] = append(bound[rq.tn], rq.bind)
		}
	}
}

func isWrite(kind string) bool {
	switch kind {
	case "and", "or", "xor", "not", "approx":
		return true
	}
	return false
}

// draw builds one request of the given kind, its operands picked by
// choose(n) in [0, n): targets are the tenant's netlist outputs or, half
// the time on a tenant with a generous quota, a live rotating name; a
// write binds its result to bind.
func (tn *serveTenant) draw(choose func(n int) int, kind string, live []string, bind string) request {
	out := func() string { return tn.outputs[choose(len(tn.outputs))] }
	anyFn := func() string {
		if !tn.tight && len(live) > 0 && choose(2) == 0 {
			return live[choose(len(live))]
		}
		return out()
	}
	base := "/v1/tenants/" + tn.id
	switch kind {
	case "count":
		target := anyFn()
		return request{tn: tn, method: "POST", path: base + "/count", class: "count", output: tn.outputName(target),
			body: serve.CountRequest{Target: target, Mode: "exact"}}
	case "sample":
		target := out()
		return request{tn: tn, method: "POST", path: base + "/sample", class: "sample", output: target,
			body: serve.SampleRequest{Target: target, N: 4, Seed: int64(choose(1 << 30))}}
	case "decomp":
		sel := []string{"band", "disjoint", "cofactor", "mcmillan"}[choose(4)]
		return tn.decompRequest(sel, anyFn())
	case "funcs", "snapshot":
		return request{tn: tn, method: "GET", path: base + "/" + kind, class: kind}
	case "approx":
		op := []string{"rua", "sp", "hb", "ua", "c1", "c2"}[choose(6)]
		th := 0
		if op == "sp" || op == "hb" || op == "c2" {
			th = 20 + choose(60)
		}
		return tn.approxRequest(op, anyFn(), th, bind)
	}
	var args []string
	switch kind {
	case "and", "or":
		args = []string{anyFn(), out()}
	case "xor":
		args = []string{out(), out()}
	default: // not
		args = []string{out()}
	}
	return request{tn: tn, method: "POST", path: base + "/ops", class: "ops", write: true, bind: bind,
		body: serve.OpRequest{Op: kind, Args: args, Result: bind}}
}

func (tn *serveTenant) approxRequest(op, target string, threshold int, bind string) request {
	return request{tn: tn, method: "POST", path: "/v1/tenants/" + tn.id + "/approx", class: "approx", write: true,
		bind: bind, output: tn.outputName(target),
		body: serve.ApproxRequest{Op: op, Target: target, Threshold: threshold, Result: bind}}
}

func (tn *serveTenant) decompRequest(sel, target string) request {
	return request{tn: tn, method: "POST", path: "/v1/tenants/" + tn.id + "/decomp", class: "decomp",
		output: tn.outputName(target), body: serve.DecompRequest{Selector: sel, Target: target}}
}

// outputName returns name if it is one of the tenant's netlist outputs
// (never rebound, so its function is known), else "".
func (tn *serveTenant) outputName(name string) string {
	if _, ok := tn.exact[name]; ok {
		return name
	}
	return ""
}

// scored reports whether the answer counts toward the quality headlines:
// like corpus and reach, those are scored on the seed-independent inputs,
// here the shared tenant's fixed multiplier outputs, once per output.
func (rq request) scored() bool { return rq.tn.owner == sharedOwner && rq.output != "" }

// send issues one request, times it, and keeps its answer for checking.
func (cr *serveClientRun) send(i int, rq request, parent *span) error {
	var body []byte
	if rq.body != nil {
		var err error
		if body, err = json.Marshal(rq.body); err != nil {
			return err
		}
	}
	reqID := fmt.Sprintf("c%d-%d", cr.idx, i)
	fmt.Fprintln(cr.inputs, rq.method, rq.path, string(body))
	s := cr.t.begin(parent, "serve.request",
		obs.Str("req_id", reqID), obs.Str("endpoint", rq.class), obs.Str("tenant", rq.tn.id))
	t0 := time.Now()
	status, out, err := do(cr.http, rq.method, cr.base+rq.path, body)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("request %s %s %s: %w", reqID, rq.method, rq.path, err)
	}
	cr.attempted++
	cr.lastOK = status/100 == 2
	if !cr.lastOK {
		s.endAt(end, obs.Int("status", status))
		cr.failed++
		if status == http.StatusUnprocessableEntity && rq.tn.tight {
			cr.refusals++ // an over-quota op with no sound degraded form
			return nil
		}
		cr.unexpected++
		return fmt.Errorf("request %s %s %s: status %d: %s", reqID, rq.method, rq.path, status, strings.TrimSpace(string(out)))
	}
	lat := ms(end.Sub(t0))
	if rq.write {
		cr.writes = append(cr.writes, lat)
	} else {
		cr.reads = append(cr.reads, lat)
	}
	if cr.t != nil {
		cr.lat[rq.class] = append(cr.lat[rq.class], lat)
	}
	if rq.class == "funcs" || rq.class == "snapshot" {
		s.endAt(end, obs.Int("status", status))
		return nil // plain bodies, no envelope
	}
	var env struct {
		Degraded  bool            `json:"degraded"`
		ElapsedNS int64           `json:"elapsed_ns"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		return fmt.Errorf("request %s: bad envelope: %w", reqID, err)
	}
	if env.Degraded {
		cr.degraded++
	}
	if cr.t != nil {
		server := time.Duration(env.ElapsedNS)
		cr.lat["server"] = append(cr.lat["server"], ms(server))
		cr.lat["transport"] = append(cr.lat["transport"], lat-ms(server))
		cr.t.child(s, "serve.server", end, server, obs.Str("req_id", reqID))
	}
	s.endAt(end, obs.Int("status", status), obs.I64("elapsed_ns", env.ElapsedNS), obs.Bool("degraded", env.Degraded))
	cr.answers = append(cr.answers, answer{reqID: reqID, rq: rq, raw: env.Result})
	return nil
}

// checkAnswers verifies the round's answers after the timed phase.
func (cr *serveClientRun) checkAnswers() error {
	for _, a := range cr.answers {
		if err := cr.check(a.rq, a.raw); err != nil {
			return fmt.Errorf("request %s %s on %s: %w", a.reqID, a.rq.path, a.rq.tn.id, err)
		}
	}
	return cr.checkSamples()
}

// check verifies one answer: exact counts of netlist outputs against the
// local compile, approximations never gaining mass, and sampled
// assignments (checked next) satisfying their target.
func (cr *serveClientRun) check(rq request, raw json.RawMessage) error {
	switch rq.class {
	case "count":
		var res serve.CountResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		if rq.output != "" && res.Exact != rq.tn.exact[rq.output] {
			return fmt.Errorf("count of %s is %s, local compile says %s", rq.output, res.Exact, rq.tn.exact[rq.output])
		}
	case "sample":
		var res serve.SampleResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		cr.samples = append(cr.samples, sampleCheck{tn: rq.tn, output: rq.output, count: res.Count, samples: res.Samples})
	case "approx":
		var res serve.ApproxResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		if res.MassOut > res.MassIn {
			return fmt.Errorf("approximation gained mass: %v > %v", res.MassOut, res.MassIn)
		}
		if rq.scored() && rq.body.(serve.ApproxRequest).Op == "rua" && res.MassOut > 0 {
			nv := rq.tn.local.M.NumVars()
			cr.densities[rq.output] = math.Ldexp(res.MassOut, nv) / float64(res.NodesOut)
		}
	case "decomp":
		var res serve.DecompResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		if res.Selector == "band" {
			if len(res.FactorNodes) != 2 {
				return fmt.Errorf("band returned %d factors", len(res.FactorNodes))
			}
			if rq.scored() {
				cr.factors[rq.output] = float64(max(res.FactorNodes[0], res.FactorNodes[1]))
			}
		}
	}
	return nil
}

// checkSamples verifies the sampled assignments against the local
// compile: the reported count is the target's exact count and every
// assignment satisfies the target.
func (cr *serveClientRun) checkSamples() error {
	for _, sc := range cr.samples {
		want := sc.tn.exact[sc.output]
		if sc.count != want {
			return fmt.Errorf("sample count of %s/%s is %s, want %s", sc.tn.id, sc.output, sc.count, want)
		}
		m := sc.tn.local.M
		f := sc.tn.local.Outputs[slices.Index(sc.tn.local.Nl.OutName, sc.output)]
		for _, s := range sc.samples {
			if len(s) != m.NumVars() {
				return fmt.Errorf("sample %q of %s/%s has %d variables, want %d", s, sc.tn.id, sc.output, len(s), m.NumVars())
			}
			a := make([]bool, len(s))
			for i := range s {
				a[i] = s[i] == '1'
			}
			if !m.Eval(f, a) {
				return fmt.Errorf("sample %q does not satisfy %s/%s", s, sc.tn.id, sc.output)
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
