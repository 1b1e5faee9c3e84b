package approx

import (
	"fmt"
	"sort"

	"bddkit/internal/bdd"
)

// refDominatedSet is the map-keyed domination walk that dominatedSet
// replaced with a SlotTable, kept as an independent check of it.
func refDominatedSet(in *info, seen bdd.Ref, exclude bdd.Ref) map[uint32]bool {
	m := in.m
	v := seen.Regular()
	excl := exclude.Regular()
	local := map[uint32]int32{v.ID(): in.at(v).funcRef}
	dom := make(map[uint32]bool)
	q := newLevelQueue(m)
	q.push(v, m.Level(v))
	queued := map[uint32]bool{v.ID(): true}
	for {
		u, ok := q.pop()
		if !ok {
			break
		}
		if u.IsConstant() {
			continue
		}
		if local[u.ID()] != in.at(u).funcRef || (u.ID() == excl.ID() && u != v) {
			continue
		}
		dom[u.ID()] = true
		for _, c := range [2]bdd.Ref{m.StructHi(u), m.StructLo(u)} {
			if c.IsConstant() {
				continue
			}
			local[c.ID()]++
			if !queued[c.ID()] {
				queued[c.ID()] = true
				q.push(c.Regular(), m.Level(c))
			}
		}
	}
	return dom
}

// CheckNodesSaved analyzes f and walks its nodes in level order, comparing
// nodesSaved and the dominated set with the map-based reference for three
// survivors per node (none, the then child, the else child). Every third
// node is then replaced by 0, so later queries run on a partially reduced
// BDD, as they do inside RUA and UA.
func CheckNodesSaved(m *bdd.Manager, f bdd.Ref) error {
	in := analyze(m, f)
	defer in.release()
	var nodes []bdd.Ref
	for s := 0; s < in.slots.Len(); s++ {
		if r := in.slots.Node(s); !r.IsConstant() {
			nodes = append(nodes, r)
		}
	}
	sort.SliceStable(nodes, func(i, j int) bool { return m.Level(nodes[i]) < m.Level(nodes[j]) })
	for i, v := range nodes {
		d := in.at(v)
		if d.funcRef == 0 {
			continue // eliminated by an earlier replacement
		}
		for _, excl := range []bdd.Ref{bdd.One, m.StructHi(v), m.StructLo(v)} {
			rep := replacement{status: statusZero, exclude: excl}
			want := refDominatedSet(in, v, excl)
			if got := nodesSaved(in, v, rep); got != len(want) {
				return fmt.Errorf("node %d, survivor %d: nodesSaved = %d, reference %d", v.ID(), excl.ID(), got, len(want))
			}
			for _, u := range dominatedSet(in, v, excl) {
				if !want[u.ID()] {
					return fmt.Errorf("node %d, survivor %d: %d dominated, not in the reference set", v.ID(), excl.ID(), u.ID())
				}
			}
		}
		if i%3 == 1 {
			rep := replacement{status: statusZero, exclude: bdd.One}
			rep.saved = nodesSaved(in, v, rep)
			applyReplacement(in, v, d, rep)
		}
	}
	return nil
}
