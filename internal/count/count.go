// Package count implements exact model counting over the shared BDD
// arena: #SAT as a big.Int (safe beyond 63 variables, where the float64
// counting in internal/bdd stops being exact), weighted counting under
// independent per-variable probabilities, and uniform satisfying-
// assignment sampling that walks the diagram drawing branch choices from
// the exact subtree counts (after Clément's iterative ROBDD counting;
// see PAPERS.md).
//
// Every entry point does one iterative post-order sweep over the DAG —
// no recursion, so chain-shaped BDDs of 10^5+ levels cannot overflow the
// goroutine stack — and holds the manager's read lease
// (bdd.Manager.ReadLocked) for the duration, so counting is safe while
// other goroutines operate on a parallel (Workers > 1) manager.
//
// Counts are functions of the Boolean function alone: they are invariant
// under variable reordering, garbage collection, Save/Load round trips,
// and the worker count that built the diagram (the ROBDD is canonical
// for a fixed order). internal/oracle pins this down against closed-form
// ground truths (N-Queens solution counts and friends).
package count

import (
	"fmt"
	"math/big"

	"bddkit/internal/bdd"
)

// levelOf returns f's level clamped to n (terminals sit below every
// variable at level n).
func levelOf(m *bdd.Manager, f bdd.Ref, n int) int {
	if l := m.Level(f); l < n {
		return l
	}
	return n
}

// sweep fills memo with the exact minterm count of every sub-function
// reachable from f, counted over the variable space strictly below the
// sub-function's own root level (so the count of One is 1: the empty
// space has one assignment). Both polarities of a shared node get their
// own entry. Must run under the manager's read lease.
func sweep(m *bdd.Manager, f bdd.Ref, n int, memo *bdd.PolarMemo[*big.Int]) {
	memo.Put(bdd.One, big.NewInt(1))
	memo.Put(bdd.Zero, big.NewInt(0))
	if _, ok := memo.Get(f); ok {
		return
	}
	stack := []bdd.Ref{f}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		if _, ok := memo.Get(r); ok {
			stack = stack[:len(stack)-1]
			continue
		}
		hi, lo := m.Hi(r), m.Lo(r)
		ch, okH := memo.Get(hi)
		cl, okL := memo.Get(lo)
		if !okH {
			stack = append(stack, hi)
		}
		if !okL {
			stack = append(stack, lo)
		}
		if !okH || !okL {
			continue
		}
		stack = stack[:len(stack)-1]
		// Each branch's count is taken over the space strictly below this
		// node; levels skipped between the node and the child root are
		// free, contributing a factor of 2 apiece.
		l := levelOf(m, r, n)
		c := new(big.Int).Lsh(ch, uint(levelOf(m, hi, n)-l-1))
		t := new(big.Int).Lsh(cl, uint(levelOf(m, lo, n)-l-1))
		memo.Put(r, c.Add(c, t))
	}
}

// Minterms returns ‖f‖: the exact number of satisfying assignments of f
// over a space of nVars variables. When nVars exceeds the manager's
// variable count the extra variables are free; when it is smaller, every
// support variable of f must have index < nVars (counting over a space
// that does not cover the support is an error).
func Minterms(m *bdd.Manager, f bdd.Ref, nVars int) (*big.Int, error) {
	memo := bdd.NewPolarMemo[*big.Int](m)
	defer memo.Release()
	return minterms(m, f, nVars, memo)
}

// minterms is Minterms sweeping into a caller-supplied memo, which holds
// the count of every sub-function of f afterwards.
func minterms(m *bdd.Manager, f bdd.Ref, nVars int, memo *bdd.PolarMemo[*big.Int]) (*big.Int, error) {
	if nVars < 0 {
		return nil, fmt.Errorf("count: negative variable count %d", nVars)
	}
	n := m.NumVars()
	if nVars < n {
		for _, v := range m.SupportVars(f) {
			if v >= nVars {
				return nil, fmt.Errorf("count: support variable %d outside the %d-variable space", v, nVars)
			}
		}
	}
	var total *big.Int
	m.ReadLocked(func() {
		sweep(m, f, n, memo)
		// Levels above the root are free.
		c, _ := memo.Get(f)
		total = new(big.Int).Lsh(c, uint(levelOf(m, f, n)))
	})
	if nVars >= n {
		total.Lsh(total, uint(nVars-n))
	} else {
		// Exact: the support check above guarantees f is independent of
		// the n-nVars dropped variables.
		total.Rsh(total, uint(n-nVars))
	}
	return total, nil
}

// MintermsOver counts f's satisfying assignments over exactly the given
// variable set (reach uses this with the present-state variables to count
// reached states exactly). The support of f must be contained in vars;
// variables in vars but not in the support are free and double the count.
func MintermsOver(m *bdd.Manager, f bdd.Ref, vars []int) (*big.Int, error) {
	n := m.NumVars()
	in := make(map[int]bool, len(vars))
	for _, v := range vars {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("count: variable %d out of range [0,%d)", v, n)
		}
		if in[v] {
			return nil, fmt.Errorf("count: duplicate variable %d", v)
		}
		in[v] = true
	}
	for _, v := range m.SupportVars(f) {
		if !in[v] {
			return nil, fmt.Errorf("count: support variable %d not in the counting set", v)
		}
	}
	c, err := Minterms(m, f, n)
	if err != nil {
		return nil, err
	}
	// f is independent of the n-len(vars) variables outside the set, so
	// the division is exact.
	return c.Rsh(c, uint(n-len(vars))), nil
}

// Fraction returns ‖f‖/2^n as a float64 computed from the exact count —
// the big.Int analogue of bdd.Manager.MintermFraction, immune to the
// float64 rounding of deep recursions.
func Fraction(m *bdd.Manager, f bdd.Ref) float64 {
	n := m.NumVars()
	c, err := Minterms(m, f, n)
	if err != nil { // unreachable: nVars == NumVars never fails
		return 0
	}
	num := new(big.Float).SetInt(c)
	den := new(big.Float).SetMantExp(big.NewFloat(1), n)
	out, _ := new(big.Float).Quo(num, den).Float64()
	return out
}

// Weighted returns the probability that f is satisfied when each variable
// v is independently true with probability weight(v). Weights are clamped
// to [0,1]. With all weights 1/2 this equals the minterm fraction.
// Variables outside f's support integrate out (w·p + (1−w)·p = p), so no
// level-skip correction is needed.
func Weighted(m *bdd.Manager, f bdd.Ref, weight func(v int) float64) float64 {
	w := func(v int) float64 {
		p := weight(v)
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	memo := bdd.NewPolarMemo[float64](m)
	defer memo.Release()
	var out float64
	m.ReadLocked(func() {
		memo.Put(bdd.One, 1)
		memo.Put(bdd.Zero, 0)
		if _, ok := memo.Get(f); !ok {
			stack := []bdd.Ref{f}
			for len(stack) > 0 {
				r := stack[len(stack)-1]
				if _, ok := memo.Get(r); ok {
					stack = stack[:len(stack)-1]
					continue
				}
				hi, lo := m.Hi(r), m.Lo(r)
				ph, okH := memo.Get(hi)
				pl, okL := memo.Get(lo)
				if !okH {
					stack = append(stack, hi)
				}
				if !okL {
					stack = append(stack, lo)
				}
				if !okH || !okL {
					continue
				}
				stack = stack[:len(stack)-1]
				p := w(m.Var(r))
				memo.Put(r, p*ph+(1-p)*pl)
			}
		}
		out, _ = memo.Get(f)
	})
	return out
}
