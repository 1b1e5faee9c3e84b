package count

import (
	"fmt"
	"math/big"
	"math/rand"

	"bddkit/internal/bdd"
)

// Sampler draws satisfying assignments of a function uniformly at random:
// every minterm has probability exactly 1/‖f‖. It precomputes the exact
// subtree counts once, then each Sample walks root-to-terminal choosing
// the then-branch with probability weight(hi)/weight(node) and filling
// skipped levels with fair coins — the tree-compaction sampling recipe of
// Clément & Genitrini (see PAPERS.md) transplanted to shared ROBDDs with
// complement arcs.
//
// The sampler borrows f (the caller keeps its reference) and snapshots
// subtree counts keyed by node identity, so it must be discarded after
// any operation that rewrites nodes (variable reordering). Garbage
// collection is harmless: live nodes are never moved or rewritten.
type Sampler struct {
	m     *bdd.Manager
	f     bdd.Ref
	n     int // manager variable count at build time
	nVars int // sample space width
	rng   *rand.Rand
	memo  map[bdd.Ref]*big.Int
	total *big.Int
}

// NewSampler prepares uniform sampling of f over nVars variables with a
// deterministic seed. f must be satisfiable, and — as with Minterms —
// when nVars is below the manager's variable count every support
// variable must have index < nVars.
func NewSampler(m *bdd.Manager, f bdd.Ref, nVars int, seed int64) (*Sampler, error) {
	if f == bdd.Zero {
		return nil, fmt.Errorf("count: cannot sample an unsatisfiable function")
	}
	sw := bdd.NewPolarMemo[*big.Int](m)
	defer sw.Release()
	total, err := minterms(m, f, nVars, sw)
	if err != nil {
		return nil, err
	}
	s := &Sampler{
		m:     m,
		f:     f,
		n:     m.NumVars(),
		nVars: nVars,
		rng:   rand.New(rand.NewSource(seed)),
		memo:  make(map[bdd.Ref]*big.Int, 2*sw.Len()),
		total: total,
	}
	// The sampler outlives the sweep's slot table, so it keeps the
	// subtree counts in a map of its own.
	sw.Each(func(r bdd.Ref, c *big.Int) { s.memo[r] = c })
	return s, nil
}

// Count returns ‖f‖ over the sample space (a copy).
func (s *Sampler) Count() *big.Int { return new(big.Int).Set(s.total) }

// coin assigns a fair bit for the variable at the given level, discarding
// bits for variables outside the sample space (their draw is kept so the
// stream does not depend on the manager's total variable count relative
// to nVars in surprising ways).
func (s *Sampler) coin(a []bool, v int) {
	bit := s.rng.Intn(2) == 1
	if v < len(a) {
		a[v] = bit
	}
}

// Sample draws one satisfying assignment, indexed by variable. The
// returned slice is freshly allocated.
func (s *Sampler) Sample() []bool {
	a := make([]bool, s.nVars)
	m := s.m
	m.ReadLocked(func() {
		r := s.f
		lev := 0
		for r != bdd.One && r != bdd.Zero {
			l := levelOf(m, r, s.n)
			// Levels above/skipped-to this node are unconstrained.
			for ; lev < l; lev++ {
				s.coin(a, m.VarAtLevel(lev))
			}
			hi, lo := m.Hi(r), m.Lo(r)
			lh, ll := levelOf(m, hi, s.n), levelOf(m, lo, s.n)
			wh := new(big.Int).Lsh(s.memo[hi], uint(lh-l-1))
			wl := new(big.Int).Lsh(s.memo[lo], uint(ll-l-1))
			tot := new(big.Int).Add(wh, wl) // > 0: we never enter a 0-count branch
			u := new(big.Int).Rand(s.rng, tot)
			// Branch variables are always in f's support, which NewSampler
			// verified lies inside the sample space.
			if u.Cmp(wh) < 0 {
				a[m.VarAtLevel(l)] = true
				r = hi
			} else {
				a[m.VarAtLevel(l)] = false
				r = lo
			}
			lev = l + 1
		}
		// r == One (a Zero branch has weight 0 and is never drawn);
		// everything below the final node is unconstrained.
		for ; lev < s.n; lev++ {
			s.coin(a, m.VarAtLevel(lev))
		}
	})
	// Free variables beyond the manager's space.
	for v := s.n; v < s.nVars; v++ {
		s.coin(a, v)
	}
	return a
}
