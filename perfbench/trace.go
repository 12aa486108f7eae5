package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// span is one interval at a layer boundary, in nanoseconds since the
// tracer started. Spans of one HTTP request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// test per boundary.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.t0))
}

// start opens a span; it is recorded by end.
func (t *tracer) start(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.at(time.Now())}
}

func (t *tracer) end(s span, tag string) {
	if t == nil {
		return
	}
	s.End = t.at(time.Now())
	s.Tag = tag
	t.record(s)
}

// record stores a span whose bounds the caller measured.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the span and self time of one layer, summed over its
// spans. Self time is a span's duration minus the part of it that its
// children cover.
type layerTime struct {
	n          int
	span, self int64
}

func selfTimes(spans []span) map[string]layerTime {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.n++
		lt.span += s.dur()
		lt.self += s.dur() - covered(kids[s.ID], s.Start, s.End)
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of the intervals, clipped
// to [lo, hi].
func covered(iv []span, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, s := range iv {
		a, z := max(s.Start, lo), min(s.End, hi)
		if z <= a {
			continue
		}
		if a > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = a, z
		} else if z > curEnd {
			curEnd = z
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// execTracker derives the engine's simulation intervals from its
// progress callback. With one engine slot the intervals are sequential:
// a simulation starts when done+failed+running rises, which also ends
// the previous one (running briefly reads 2 while the slot changes
// hands), and the open one ends once done+failed has caught up with
// the starts. It only tracks while armed, and only engine calls that
// simulate may run while it is armed (a memo hit raises done without a
// simulation).
type execTracker struct {
	mu       sync.Mutex
	armed    bool
	fin      int64 // done+failed seen
	starts   int64 // simulations started
	open     bool
	openAt   time.Time
	execs    [][2]time.Time
	finishes []time.Time
	changed  chan struct{}
}

func newExecTracker() *execTracker { return &execTracker{changed: make(chan struct{})} }

func (t *execTracker) onProgress(s sim.Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.armed {
		return
	}
	now := time.Now()
	fin := s.Done + s.Failed
	for ; t.fin < fin; t.fin++ {
		t.finishes = append(t.finishes, now)
	}
	if st := fin + s.Running; st > t.starts {
		t.closeOpen(now)
		t.starts = st
		t.open, t.openAt = true, now
		close(t.changed)
		t.changed = make(chan struct{})
	}
	if fin >= t.starts {
		t.closeOpen(now)
	}
}

func (t *execTracker) closeOpen(now time.Time) {
	if t.open {
		t.execs = append(t.execs, [2]time.Time{t.openAt, now})
		t.open = false
	}
}

// arm starts tracking from a fresh engine's zero counters.
func (t *execTracker) arm() {
	t.mu.Lock()
	t.armed, t.fin, t.starts, t.open = true, 0, 0, false
	t.execs, t.finishes = nil, nil
	t.mu.Unlock()
}

// disarm stops tracking and returns the completed simulation intervals
// and the completion times seen while armed.
func (t *execTracker) disarm() (execs [][2]time.Time, finishes []time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.armed = false
	return t.execs, t.finishes
}

func (t *execTracker) startCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.starts
}

// waitStarts blocks until at least n simulations have started.
func (t *execTracker) waitStarts(ctx context.Context, n int64) error {
	for {
		t.mu.Lock()
		if t.starts >= n {
			t.mu.Unlock()
			return nil
		}
		ch := t.changed
		t.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("waiting for simulation %d to start: %w", n, ctx.Err())
		}
	}
}
