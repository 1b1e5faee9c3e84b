package bdd

// Quantification and the relational product. Sets of variables to quantify
// are passed as positive cubes: BDDs that are conjunctions of positive
// literals, built with CubeFromVars.

// CubeFromVars returns the conjunction of the projection functions of the
// given variable indices (a positive cube). An empty set yields One.
func (m *Manager) CubeFromVars(vars []int) Ref {
	if m.par != nil {
		return m.parCubeFromVars(vars)
	}
	// Build bottom-up in level order so each makeNode is O(1).
	levels := make([]int32, 0, len(vars))
	for _, v := range vars {
		levels = append(levels, m.varToLev[v])
	}
	// Insertion sort: var sets are small.
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] < levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	r := One
	for i := len(levels) - 1; i >= 0; i-- {
		if i < len(levels)-1 && levels[i] == levels[i+1] {
			continue // duplicate variable
		}
		nr := m.makeNode(levels[i], r, Zero)
		m.derefS(r)
		r = nr
	}
	return r
}

// Exists returns ∃vars. f.
func (m *Manager) Exists(f Ref, vars []int) Ref {
	cube := m.CubeFromVars(vars)
	r := m.ExistsCube(f, cube)
	m.Deref(cube)
	return r
}

// ExistsCube returns ∃cube. f where cube is a positive cube of the
// variables to abstract.
func (m *Manager) ExistsCube(f, cube Ref) Ref {
	if m.par != nil {
		return m.parExistsCube(f, cube)
	}
	m.maybeReorder()
	return m.existsRec(f, cube)
}

// ForAll returns ∀vars. f.
func (m *Manager) ForAll(f Ref, vars []int) Ref {
	cube := m.CubeFromVars(vars)
	r := m.ForAllCube(f, cube)
	m.Deref(cube)
	return r
}

// ForAllCube returns ∀cube. f.
func (m *Manager) ForAllCube(f, cube Ref) Ref {
	if m.par != nil {
		return m.parExistsCube(f.Complement(), cube).Complement()
	}
	m.maybeReorder()
	return m.existsRec(f.Complement(), cube).Complement()
}

// AndExists returns ∃cube. (f AND g) without building f AND g first — the
// relational-product operation at the heart of image computation.
func (m *Manager) AndExists(f, g, cube Ref) Ref {
	if m.par != nil {
		return m.parAndExists(f, g, cube)
	}
	m.maybeReorder()
	return m.andExistsRec(f, g, cube)
}

// skipCube advances cube past quantified variables that sit above level
// lev in the order (they cannot occur in the operand below).
func (m *Manager) skipCube(cube Ref, lev int32) Ref {
	for cube != One && m.nodes[cube.index()].level < lev {
		cube = m.nodes[cube.index()].hi // positive cube: hi continues the chain
	}
	return cube
}

func (m *Manager) existsRec(f, cube Ref) Ref {
	if f.IsConstant() || cube == One {
		return m.refS(f)
	}
	lev := m.nodes[f.index()].level
	cube = m.skipCube(cube, lev)
	if cube == One {
		return m.refS(f)
	}
	if r, ok := m.cacheLookup(opExists, f, cube, 0); ok {
		return m.refS(r)
	}
	f1, f0 := m.cofs(f, lev)
	var r Ref
	if m.nodes[cube.index()].level == lev {
		rest := m.nodes[cube.index()].hi
		t := m.existsRec(f1, rest)
		if t == One {
			r = One
		} else {
			e := m.existsRec(f0, rest)
			r = m.andRec(t.Complement(), e.Complement()).Complement() // t OR e
			m.derefS(t)
			m.derefS(e)
		}
	} else {
		t := m.existsRec(f1, cube)
		e := m.existsRec(f0, cube)
		r = m.makeNode(lev, t, e)
		m.derefS(t)
		m.derefS(e)
	}
	m.cacheInsert(opExists, f, cube, 0, r)
	return r
}

func (m *Manager) andExistsRec(f, g, cube Ref) Ref {
	// Terminal cases.
	if f == Zero || g == Zero || f == g.Complement() {
		return Zero
	}
	if f == g {
		return m.existsRec(f, cube)
	}
	if f == One {
		return m.existsRec(g, cube)
	}
	if g == One {
		return m.existsRec(f, cube)
	}
	lev := m.top2(f, g)
	cube = m.skipCube(cube, lev)
	if cube == One {
		return m.andRec(f, g)
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.cacheLookup(opAndExists, f, g, cube); ok {
		return m.refS(r)
	}
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	var r Ref
	if m.nodes[cube.index()].level == lev {
		rest := m.nodes[cube.index()].hi
		t := m.andExistsRec(f1, g1, rest)
		if t == One {
			r = One
		} else {
			e := m.andExistsRec(f0, g0, rest)
			r = m.andRec(t.Complement(), e.Complement()).Complement()
			m.derefS(t)
			m.derefS(e)
		}
	} else {
		t := m.andExistsRec(f1, g1, cube)
		e := m.andExistsRec(f0, g0, cube)
		r = m.makeNode(lev, t, e)
		m.derefS(t)
		m.derefS(e)
	}
	m.cacheInsert(opAndExists, f, g, cube, r)
	return r
}

// Permute returns f with each variable v replaced by variable perm[v].
// perm must be a permutation of 0..NumVars-1 (entries for variables outside
// f's support are ignored). A per-call memo table is used because the cache
// key would otherwise have to identify perm.
func (m *Manager) Permute(f Ref, perm []int) Ref {
	if m.par != nil {
		return m.parPermute(f, perm)
	}
	memo := NewPolarMemo[Ref](m)
	defer memo.Release()
	r := m.permuteRec(f, perm, memo)
	// The memo owns one reference per entry; the result picked up an
	// extra one to survive the release below.
	m.refS(r)
	memo.Each(func(_, v Ref) { m.derefS(v) })
	return r
}

func (m *Manager) permuteRec(f Ref, perm []int, memo *PolarMemo[Ref]) Ref {
	if f.IsConstant() {
		return f
	}
	if r, ok := memo.Get(f); ok {
		return r
	}
	v := m.Var(f)
	t := m.permuteRec(m.Hi(f), perm, memo)
	e := m.permuteRec(m.Lo(f), perm, memo)
	// The new variable may sit anywhere in the order, so compose with ITE
	// rather than makeNode.
	r := m.iteRec(m.vars[perm[v]], t, e, 1)
	memo.Put(f, r)
	return r
}

// Compose returns f with variable v substituted by function g.
func (m *Manager) Compose(f Ref, v int, g Ref) Ref {
	if m.par != nil {
		return m.parCompose(f, v, g)
	}
	return m.composeRec(f, m.varToLev[v], g)
}

func (m *Manager) composeRec(f Ref, lev int32, g Ref) Ref {
	fl := m.nodes[f.index()].level
	if fl > lev {
		return m.refS(f) // v not in f's remaining support
	}
	if r, ok := m.cacheLookup(opCompose, f, g, Ref(lev)); ok {
		return m.refS(r)
	}
	var r Ref
	if fl == lev {
		f1, f0 := m.cofs(f, lev)
		r = m.iteRec(g, f1, f0, 1)
	} else {
		f1, f0 := m.cofs(f, fl)
		t := m.composeRec(f1, lev, g)
		e := m.composeRec(f0, lev, g)
		// The top variable of f stays in place; g may contain
		// variables above it, in which case ITE is required.
		v := m.vars[m.levToVar[fl]]
		r = m.iteRec(v, t, e, 1)
		m.derefS(t)
		m.derefS(e)
	}
	m.cacheInsert(opCompose, f, g, Ref(lev), r)
	return r
}
