package main

import (
	"runtime"
	"sync"
	"time"

	"bddkit/internal/bdd"
)

// Counters read at layer boundaries from outside the program: the bdd
// observer hook (GC and reordering events of every manager, including the
// serve tenants'), Manager.Stats deltas, and Go runtime statistics.

// gcObserver counts the structural events bdd reports through its
// process-wide Observer hook. Installed only for traced passes.
type gcObserver struct {
	mu          sync.Mutex
	gcs         int
	gcNodes     int
	gcTime      time.Duration
	reorders    int
	reorderTime time.Duration
}

func (o *gcObserver) GC(reclaimed, live int, pause time.Duration) {
	o.mu.Lock()
	o.gcs++
	o.gcNodes += reclaimed
	o.gcTime += pause
	o.mu.Unlock()
}

func (o *gcObserver) Reorder(before, after int, dur time.Duration) {
	o.mu.Lock()
	o.reorders++
	o.reorderTime += dur
	o.mu.Unlock()
}

func (o *gcObserver) Abort(string)       {}
func (o *gcObserver) DebugFailure(error) {}

func installObserver() *gcObserver {
	o := &gcObserver{}
	bdd.SetObserver(o)
	return o
}

func (o *gcObserver) uninstall() { bdd.SetObserver(nil) }

func (o *gcObserver) finish(p *pass) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p.setLayer("bdd.gc_count", float64(o.gcs))
	p.setLayer("bdd.gc_nodes", float64(o.gcNodes))
	p.setLayer("bdd.gc_s", o.gcTime.Seconds())
	p.setLayer("bdd.reorder_count", float64(o.reorders))
	p.setLayer("bdd.reorder_s", o.reorderTime.Seconds())
}

// memCounters reports Go runtime GC work over a traced pass.
type memCounters struct{ before runtime.MemStats }

func startMemCounters() *memCounters {
	m := &memCounters{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memCounters) finish(p *pass) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.setLayer("go.gc_cycles", float64(after.NumGC-m.before.NumGC))
	p.setLayer("go.gc_pause_s", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e9)
	p.setLayer("go.alloc_mb", float64(after.TotalAlloc-m.before.TotalAlloc)/(1<<20))
}

// kernelCounters accumulates computed-cache and unique-table traffic of
// the managers a pass owns, as Stats deltas over its timed phase.
type kernelCounters struct {
	uniqueLookups, uniqueHits int64
	cacheLookups, cacheHits   int64
	cacheResizes              int64
	peakLive                  int
}

// add folds the delta between two Stats snapshots of one manager.
func (k *kernelCounters) add(before, after bdd.Stats) {
	k.uniqueLookups += after.UniqueLookups - before.UniqueLookups
	k.uniqueHits += after.UniqueHits - before.UniqueHits
	k.cacheLookups += after.CacheLookups - before.CacheLookups
	k.cacheHits += after.CacheHits - before.CacheHits
	k.cacheResizes += after.CacheResizes - before.CacheResizes
	if after.PeakLive > k.peakLive {
		k.peakLive = after.PeakLive
	}
}

func (k *kernelCounters) report(p *pass) {
	p.setLayer("bdd.unique_lookups", float64(k.uniqueLookups))
	p.setLayer("bdd.unique_hit_rate", ratio(k.uniqueHits, k.uniqueLookups))
	p.setLayer("bdd.cache_lookups", float64(k.cacheLookups))
	p.setLayer("bdd.cache_hit_rate", ratio(k.cacheHits, k.cacheLookups))
	p.setLayer("bdd.cache_resizes", float64(k.cacheResizes))
	p.setLayer("bdd.peak_live_nodes", float64(k.peakLive))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
