package bdd

import "time"

// Parallel counterparts of the recursive operation kernels, plus the public
// entry points that dispatch to them when the manager runs with Workers > 1.
//
// The recursions mirror their serial twins line for line — same terminal
// cases, same operand normalization, same cache keys — so parallel and
// serial (and exclusive-section serial code on a parallel manager) share the
// computed table and produce identical canonical results. The differences:
//
//   - reference counts move through atomic CAS (refPar/derefPar),
//   - unique-table and computed-cache access go through the striped locks
//     (makeNodePar, cacheLookupPar, cacheInsertPar),
//   - a checkpoint at each entry parks the worker when a stop-the-world
//     (GC, arena growth, cache resize) is pending,
//   - above the granularity cutoff one cofactor subproblem is forked into
//     the worker's deque and joined after the other is computed inline.
//
// The shared computed cache doubles as the duplicate-work suppressor: when
// two workers race toward the same subproblem, the first to finish inserts
// the result and the other hits it on the way down, so duplicated in-flight
// work is bounded and rare.

// parMaybeReorder is maybeReorder for parallel managers: the fast path reads
// two atomics; arming takes the write lease and re-checks, then runs the
// serial sifting code on the quiescent manager. The write-lease epoch is
// attributed to the reorder cause (even when the re-check declines, the
// exclusion really happened and ops really waited).
func (m *Manager) parMaybeReorder() {
	e := m.par
	if !e.autoReorderA.Load() || e.liveApprox() <= e.reorderThresholdA.Load() {
		return
	}
	start := time.Now()
	e.opLease.Lock()
	wait := time.Since(start)
	held := time.Now()
	e.leaseCause.Store(int32(stwReorder))
	e.leaseHeldSince.Store(held.UnixNano())
	e.statsMu.Lock() // see exclusive: serial code vs. lingering thief flushes
	e.syncEnter(m)
	if m.autoReorder && m.liveCount > m.reorderThreshold {
		m.reorderNow(ReorderSift, SiftConfig{MaxVars: autoSiftMaxVars})
		next := 2 * m.liveCount
		if next < m.reorderThreshold {
			next = m.reorderThreshold
		}
		m.reorderThreshold = next
	}
	e.syncExit(m)
	e.statsMu.Unlock()
	e.leaseHeldSince.Store(0)
	e.opLease.Unlock()
	e.recordSTW(stwReorder, wait, time.Since(held))
}

// parAnd is the parallel And entry point.
func (m *Manager) parAnd(f, g Ref) Ref {
	m.parMaybeReorder()
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcAnd)
	defer m.endOp(w, ctx)
	return m.parAndRec(w, f, g, 1)
}

// parXor is the parallel Xor entry point.
func (m *Manager) parXor(f, g Ref) Ref {
	m.parMaybeReorder()
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcXor)
	defer m.endOp(w, ctx)
	return m.parXorRec(w, f, g, 1)
}

// parITE is the parallel ITE entry point.
func (m *Manager) parITE(f, g, h Ref) Ref {
	m.parMaybeReorder()
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcITE)
	defer m.endOp(w, ctx)
	return m.parIteRec(w, f, g, h, 1)
}

// parExistsCube is the parallel ExistsCube entry point.
func (m *Manager) parExistsCube(f, cube Ref) Ref {
	m.parMaybeReorder()
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcExists)
	defer m.endOp(w, ctx)
	return m.parExistsRec(w, f, cube, 1)
}

// parAndExists is the parallel AndExists entry point.
func (m *Manager) parAndExists(f, g, cube Ref) Ref {
	m.parMaybeReorder()
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcAndExists)
	defer m.endOp(w, ctx)
	return m.parAndExistsRec(w, f, g, cube, 1)
}

// parLeq is the parallel Leq entry point.
func (m *Manager) parLeq(f, g Ref) bool {
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcLeq)
	defer m.endOp(w, ctx)
	return m.parLeqRec(w, f, g)
}

// parCompose is the parallel Compose entry point.
func (m *Manager) parCompose(f Ref, v int, g Ref) Ref {
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcCompose)
	defer m.endOp(w, ctx)
	return m.parComposeRec(w, f, m.varToLev[v], g)
}

// parPermute is the parallel Permute entry point.
func (m *Manager) parPermute(f Ref, perm []int) Ref {
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcPermute)
	defer m.endOp(w, ctx)
	memo := NewPolarMemo[Ref](m)
	defer memo.Release()
	r := m.parPermuteRec(w, f, perm, memo)
	m.refPar(r)
	memo.Each(func(_, v Ref) { m.derefParIndex(v.index()) })
	return r
}

// parCubeFromVars is the parallel CubeFromVars entry point.
func (m *Manager) parCubeFromVars(vars []int) Ref {
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(opcCube)
	defer m.endOp(w, ctx)
	levels := make([]int32, 0, len(vars))
	for _, v := range vars {
		levels = append(levels, m.varToLev[v])
	}
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] < levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	r := One
	for i := len(levels) - 1; i >= 0; i-- {
		if i < len(levels)-1 && levels[i] == levels[i+1] {
			continue
		}
		nr := m.makeNodePar(w, levels[i], r, Zero)
		m.derefParIndex(r.index())
		r = nr
	}
	return r
}

func (m *Manager) parAndRec(w *parWorker, f, g Ref, depth int32) Ref {
	if f == Zero || g == Zero || f == g.Complement() {
		return Zero
	}
	if f == One || f == g {
		return m.refPar(g)
	}
	if g == One {
		return m.refPar(f)
	}
	if f > g {
		f, g = g, f
	}
	w.checkpoint()
	if r, ok := m.cacheLookupPar(w, opAnd, f, g, 0); ok {
		return m.refPar(r)
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	var t, e Ref
	if w.shouldFork(depth) && !f0.IsConstant() && !g0.IsConstant() {
		task := w.fork(taskAnd, f0, g0, 0, depth+1)
		t = m.parAndRec(w, f1, g1, depth+1)
		e = m.join(w, task)
	} else {
		t = m.parAndRec(w, f1, g1, depth+1)
		e = m.parAndRec(w, f0, g0, depth+1)
	}
	r := m.makeNodePar(w, lev, t, e)
	m.derefParIndex(t.index())
	m.derefParIndex(e.index())
	m.cacheInsertPar(w, opAnd, f, g, 0, r)
	return r
}

func (m *Manager) parXorRec(w *parWorker, f, g Ref, depth int32) Ref {
	if f == g {
		return Zero
	}
	if f == g.Complement() {
		return One
	}
	if f == Zero {
		return m.refPar(g)
	}
	if g == Zero {
		return m.refPar(f)
	}
	if f == One {
		return m.refPar(g.Complement())
	}
	if g == One {
		return m.refPar(f.Complement())
	}
	out := Ref(0)
	if f.IsComplement() {
		f ^= 1
		out ^= 1
	}
	if g.IsComplement() {
		g ^= 1
		out ^= 1
	}
	if f > g {
		f, g = g, f
	}
	w.checkpoint()
	if r, ok := m.cacheLookupPar(w, opXor, f, g, 0); ok {
		return m.refPar(r) ^ out
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	var t, e Ref
	if w.shouldFork(depth) && !f0.IsConstant() && !g0.IsConstant() {
		task := w.fork(taskXor, f0, g0, 0, depth+1)
		t = m.parXorRec(w, f1, g1, depth+1)
		e = m.join(w, task)
	} else {
		t = m.parXorRec(w, f1, g1, depth+1)
		e = m.parXorRec(w, f0, g0, depth+1)
	}
	r := m.makeNodePar(w, lev, t, e)
	m.derefParIndex(t.index())
	m.derefParIndex(e.index())
	m.cacheInsertPar(w, opXor, f, g, 0, r)
	return r ^ out
}

func (m *Manager) parIteRec(w *parWorker, f, g, h Ref, depth int32) Ref {
	if int(depth) > w.stats.PeakITEDepth {
		w.stats.PeakITEDepth = int(depth)
	}
	switch {
	case f == One:
		return m.refPar(g)
	case f == Zero:
		return m.refPar(h)
	case g == h:
		return m.refPar(g)
	case g == h.Complement():
		return m.parXorRec(w, f, h, depth)
	case f == g:
		g = One
	case f == g.Complement():
		g = Zero
	case f == h:
		h = Zero
	case f == h.Complement():
		h = One
	}
	if g == One && h == Zero {
		return m.refPar(f)
	}
	if g == Zero && h == One {
		return m.refPar(f.Complement())
	}
	if g == One {
		return m.parAndRec(w, f.Complement(), h.Complement(), depth).Complement()
	}
	if h == Zero {
		return m.parAndRec(w, f, g, depth)
	}
	if g == Zero {
		return m.parAndRec(w, f.Complement(), h, depth)
	}
	if h == One {
		return m.parAndRec(w, f, g.Complement(), depth).Complement()
	}
	if f.IsComplement() {
		f ^= 1
		g, h = h, g
	}
	out := Ref(0)
	if g.IsComplement() {
		g ^= 1
		h ^= 1
		out = 1
	}
	w.checkpoint()
	if r, ok := m.cacheLookupPar(w, opIte, f, g, h); ok {
		return m.refPar(r) ^ out
	}
	lev := m.top2(f, g)
	if lh := m.nodes[h.index()].level; lh < lev {
		lev = lh
	}
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	h1, h0 := m.cofs(h, lev)
	var t, e Ref
	if w.shouldFork(depth) && !f0.IsConstant() {
		task := w.fork(taskIte, f0, g0, h0, depth+1)
		t = m.parIteRec(w, f1, g1, h1, depth+1)
		e = m.join(w, task)
	} else {
		t = m.parIteRec(w, f1, g1, h1, depth+1)
		e = m.parIteRec(w, f0, g0, h0, depth+1)
	}
	r := m.makeNodePar(w, lev, t, e)
	m.derefParIndex(t.index())
	m.derefParIndex(e.index())
	m.cacheInsertPar(w, opIte, f, g, h, r)
	return r ^ out
}

func (m *Manager) parLeqRec(w *parWorker, f, g Ref) bool {
	if f == Zero || g == One || f == g {
		return true
	}
	if f == One || g == Zero || f == g.Complement() {
		return false
	}
	w.checkpoint()
	if r, ok := m.cacheLookupPar(w, opLeq, f, g, 0); ok {
		return r == One
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	res := m.parLeqRec(w, f1, g1) && m.parLeqRec(w, f0, g0)
	enc := Zero
	if res {
		enc = One
	}
	m.cacheInsertPar(w, opLeq, f, g, 0, enc)
	return res
}

func (m *Manager) parExistsRec(w *parWorker, f, cube Ref, depth int32) Ref {
	if f.IsConstant() || cube == One {
		return m.refPar(f)
	}
	lev := m.nodes[f.index()].level
	cube = m.skipCube(cube, lev)
	if cube == One {
		return m.refPar(f)
	}
	w.checkpoint()
	if r, ok := m.cacheLookupPar(w, opExists, f, cube, 0); ok {
		return m.refPar(r)
	}
	f1, f0 := m.cofs(f, lev)
	var r Ref
	if m.nodes[cube.index()].level == lev {
		rest := m.nodes[cube.index()].hi
		if w.shouldFork(depth) && !f0.IsConstant() {
			task := w.fork(taskExists, f0, rest, 0, depth+1)
			t := m.parExistsRec(w, f1, rest, depth+1)
			e := m.join(w, task)
			r = m.parAndRec(w, t.Complement(), e.Complement(), depth+1).Complement()
			m.derefParIndex(t.index())
			m.derefParIndex(e.index())
		} else {
			t := m.parExistsRec(w, f1, rest, depth+1)
			if t == One {
				r = One
			} else {
				e := m.parExistsRec(w, f0, rest, depth+1)
				r = m.parAndRec(w, t.Complement(), e.Complement(), depth+1).Complement()
				m.derefParIndex(t.index())
				m.derefParIndex(e.index())
			}
		}
	} else {
		var t, e Ref
		if w.shouldFork(depth) && !f0.IsConstant() {
			task := w.fork(taskExists, f0, cube, 0, depth+1)
			t = m.parExistsRec(w, f1, cube, depth+1)
			e = m.join(w, task)
		} else {
			t = m.parExistsRec(w, f1, cube, depth+1)
			e = m.parExistsRec(w, f0, cube, depth+1)
		}
		r = m.makeNodePar(w, lev, t, e)
		m.derefParIndex(t.index())
		m.derefParIndex(e.index())
	}
	m.cacheInsertPar(w, opExists, f, cube, 0, r)
	return r
}

func (m *Manager) parAndExistsRec(w *parWorker, f, g, cube Ref, depth int32) Ref {
	if f == Zero || g == Zero || f == g.Complement() {
		return Zero
	}
	if f == g {
		return m.parExistsRec(w, f, cube, depth)
	}
	if f == One {
		return m.parExistsRec(w, g, cube, depth)
	}
	if g == One {
		return m.parExistsRec(w, f, cube, depth)
	}
	lev := m.top2(f, g)
	cube = m.skipCube(cube, lev)
	if cube == One {
		return m.parAndRec(w, f, g, depth)
	}
	if f > g {
		f, g = g, f
	}
	w.checkpoint()
	if r, ok := m.cacheLookupPar(w, opAndExists, f, g, cube); ok {
		return m.refPar(r)
	}
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	var r Ref
	if m.nodes[cube.index()].level == lev {
		rest := m.nodes[cube.index()].hi
		if w.shouldFork(depth) && !f0.IsConstant() && !g0.IsConstant() {
			task := w.fork(taskAndExists, f0, g0, rest, depth+1)
			t := m.parAndExistsRec(w, f1, g1, rest, depth+1)
			e := m.join(w, task)
			r = m.parAndRec(w, t.Complement(), e.Complement(), depth+1).Complement()
			m.derefParIndex(t.index())
			m.derefParIndex(e.index())
		} else {
			t := m.parAndExistsRec(w, f1, g1, rest, depth+1)
			if t == One {
				r = One
			} else {
				e := m.parAndExistsRec(w, f0, g0, rest, depth+1)
				r = m.parAndRec(w, t.Complement(), e.Complement(), depth+1).Complement()
				m.derefParIndex(t.index())
				m.derefParIndex(e.index())
			}
		}
	} else {
		var t, e Ref
		if w.shouldFork(depth) && !f0.IsConstant() && !g0.IsConstant() {
			task := w.fork(taskAndExists, f0, g0, cube, depth+1)
			t = m.parAndExistsRec(w, f1, g1, cube, depth+1)
			e = m.join(w, task)
		} else {
			t = m.parAndExistsRec(w, f1, g1, cube, depth+1)
			e = m.parAndExistsRec(w, f0, g0, cube, depth+1)
		}
		r = m.makeNodePar(w, lev, t, e)
		m.derefParIndex(t.index())
		m.derefParIndex(e.index())
	}
	m.cacheInsertPar(w, opAndExists, f, g, cube, r)
	return r
}

func (m *Manager) parComposeRec(w *parWorker, f Ref, lev int32, g Ref) Ref {
	fl := m.nodes[f.index()].level
	if fl > lev {
		return m.refPar(f)
	}
	w.checkpoint()
	if r, ok := m.cacheLookupPar(w, opCompose, f, g, Ref(lev)); ok {
		return m.refPar(r)
	}
	var r Ref
	if fl == lev {
		f1, f0 := m.cofs(f, lev)
		r = m.parIteRec(w, g, f1, f0, 1)
	} else {
		f1, f0 := m.cofs(f, fl)
		t := m.parComposeRec(w, f1, lev, g)
		e := m.parComposeRec(w, f0, lev, g)
		v := m.vars[m.levToVar[fl]]
		r = m.parIteRec(w, v, t, e, 1)
		m.derefParIndex(t.index())
		m.derefParIndex(e.index())
	}
	m.cacheInsertPar(w, opCompose, f, g, Ref(lev), r)
	return r
}

func (m *Manager) parPermuteRec(w *parWorker, f Ref, perm []int, memo *PolarMemo[Ref]) Ref {
	if f.IsConstant() {
		return f
	}
	if r, ok := memo.Get(f); ok {
		return r
	}
	w.checkpoint()
	v := m.Var(f)
	hi, lo := m.Hi(f), m.Lo(f)
	t := m.parPermuteRec(w, hi, perm, memo)
	e := m.parPermuteRec(w, lo, perm, memo)
	r := m.parIteRec(w, m.vars[perm[v]], t, e, 1)
	memo.Put(f, r)
	return r
}
