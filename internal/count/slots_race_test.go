package count_test

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/oracle"
)

// TestConcurrentSlotWalks runs DagSize, SharingSize, SupportVars and
// count.Minterms from several goroutines on one Workers=4 manager while
// another goroutine's conjunctions grow the arena (and collect garbage).
// Each reader draws SlotTables from the manager's free list; under -race
// this checks the tables are never shared and never read the arena
// header a growth swaps.
func TestConcurrentSlotWalks(t *testing.T) {
	const nvars = 16
	m := bdd.NewWithConfig(nvars, bdd.Config{InitialNodes: 256, Workers: 4})
	g := oracle.NewGen(11, nvars)
	fs := make([]bdd.Ref, 6)
	for i := range fs {
		fs[i] = g.Expr(6).Build(m)
	}
	type want struct {
		size    int
		support string
		count   *big.Int
	}
	wants := make([]want, len(fs))
	for i, f := range fs {
		c, err := count.Minterms(m, f, nvars)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{m.DagSize(f), fmt.Sprint(m.SupportVars(f)), c}
	}
	shared := m.SharingSize(fs)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the writer: build and drop conjunctions until told to stop
		defer wg.Done()
		gen := oracle.NewGen(12, nvars)
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := gen.Expr(5).Build(m)
			b := m.And(a, fs[0])
			m.Deref(a)
			m.Deref(b)
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for it := 0; it < 150; it++ {
				i := (it + r) % len(fs)
				f := fs[i]
				if got := m.DagSize(f); got != wants[i].size {
					errs <- fmt.Errorf("DagSize(f%d) = %d, want %d", i, got, wants[i].size)
					return
				}
				if got := fmt.Sprint(m.SupportVars(f)); got != wants[i].support {
					errs <- fmt.Errorf("SupportVars(f%d) = %s, want %s", i, got, wants[i].support)
					return
				}
				if got := m.SharingSize(fs); got != shared {
					errs <- fmt.Errorf("SharingSize = %d, want %d", got, shared)
					return
				}
				c, err := count.Minterms(m, f, nvars)
				if err != nil || c.Cmp(wants[i].count) != 0 {
					errs <- fmt.Errorf("Minterms(f%d) = %v (%v), want %v", i, c, err, wants[i].count)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if peak := m.Stats().PeakLive; peak <= 256 {
		t.Fatalf("peak live nodes %d: the writer never grew the 256-node arena", peak)
	}
}
