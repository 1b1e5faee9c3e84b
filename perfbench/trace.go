package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bddkit/internal/obs"
)

// The benchmark's own tracer. Spans are recorded around every call the
// benchmark makes into a layer (workload pass → item → layer call), kept in
// memory, and written at exit as JSONL in the obs.Event schema, so
// `obscheck` validates the file and `traceview summary` rolls it up. The
// tracer is separate from the process-global obs.T, which stays disarmed:
// no span is recorded inside the program.
//
// Unlike obs.Tracer, parents are explicit, so the two serve-mix clients
// can record concurrently without sharing a span stack. A nil *tracer
// records nothing; untraced passes run with nil.

type tracer struct {
	nextID atomic.Uint64

	mu     sync.Mutex
	events []obs.Event
}

type span struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]any
}

// begin opens a span under parent (nil = root).
func (t *tracer) begin(parent *span, name string, attrs ...obs.Attr) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, id: t.nextID.Add(1), name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	s.set(attrs...)
	return s
}

// set adds attributes to an open span.
func (s *span) set(attrs ...obs.Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, len(attrs))
	}
	for _, a := range attrs {
		s.attrs[a.Key] = a.Val
	}
}

// end closes the span now.
func (s *span) end(attrs ...obs.Attr) {
	if s == nil {
		return
	}
	s.endAt(time.Now(), attrs...)
}

// endAt closes the span at a given instant (used for spans synthesized
// from a duration the server reported).
func (s *span) endAt(at time.Time, attrs ...obs.Attr) {
	if s == nil {
		return
	}
	s.set(attrs...)
	ev := obs.Event{
		TS:     at.Format(time.RFC3339Nano),
		V:      obs.TraceSchemaVersion,
		Kind:   "span",
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		DurNS:  at.Sub(s.start).Nanoseconds(),
		Attrs:  s.attrs,
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, ev)
	s.t.mu.Unlock()
}

// child records a completed span of duration d ending at end.
func (t *tracer) child(parent *span, name string, end time.Time, d time.Duration, attrs ...obs.Attr) {
	if t == nil {
		return
	}
	s := t.begin(parent, name, attrs...)
	s.start = end.Add(-d)
	s.endAt(end)
}

// timed runs fn inside a span.
func (t *tracer) timed(parent *span, name string, fn func(), attrs ...obs.Attr) {
	s := t.begin(parent, name, attrs...)
	fn()
	s.end()
}

// drain returns the JSONL of the spans recorded since the last drain.
func (t *tracer) drain() []byte {
	t.mu.Lock()
	evs := t.events
	t.events = nil
	t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			panic(fmt.Sprintf("encode span: %v", err))
		}
	}
	return buf.Bytes()
}

// spanTotals rolls one pass's JSONL up with obs.AnalyzeTrace, the engine
// behind `traceview summary`, and returns total seconds per span name.
func spanTotals(jsonl []byte) map[string]float64 {
	a, err := obs.AnalyzeTrace(bytes.NewReader(jsonl))
	if err != nil {
		panic(fmt.Sprintf("analyze trace: %v", err))
	}
	out := make(map[string]float64, len(a.Rollups))
	for _, r := range a.Rollups {
		if r.Kind == "span" {
			out[r.Name] = float64(r.Total) / 1e9
		}
	}
	return out
}
