package main

import (
	"time"

	"flowmotif/internal/obs"
)

// reconcileTolerance is how far the sum of layer self-times in a traced
// pass may fall short of the pass's wall clock (the rest is the loop
// between the calls).
const reconcileTolerance = 0.05

// tracer records the benchmark's own spans around calls into each layer.
// A nil tracer is off: its methods read no clock and record nothing, which
// is how end-to-end runs keep the benchmark's spans out of their timings.
type tracer struct {
	t0    time.Time
	spans []spanRec
	open  []int
}

type spanRec struct {
	name       string
	start, end time.Duration
	child      time.Duration // time covered by direct child spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under the innermost open one and returns its handle.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, spanRec{name: name, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// stop closes span id, which must be the innermost open span.
func (t *tracer) stop(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	s := &t.spans[id]
	s.end = now
	t.open = t.open[:len(t.open)-1]
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].child += now - s.start
	}
}

// self sums each span name's self time: its duration minus the part its
// child spans cover.
func (t *tracer) self() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		out[s.name] += s.end - s.start - s.child
	}
	return out
}

// durations returns every closed span's duration for one name, in order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// histSum sums a histogram family's sums and counts in a registry snapshot,
// over series carrying every given label.
func histSum(reg *obs.Registry, name string, labels ...obs.Label) (sum float64, count uint64) {
	if reg == nil {
		return 0, 0
	}
	for _, m := range reg.Snapshot() {
		if m.Name != name || m.Hist == nil || !hasLabels(m.Labels, labels) {
			continue
		}
		sum += m.Hist.Sum
		count += m.Hist.Count
	}
	return sum, count
}

// histMerged bucket-merges a histogram family across registries.
func histMerged(regs []*obs.Registry, name string) *obs.HistogramSnapshot {
	var out *obs.HistogramSnapshot
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		for _, m := range reg.Snapshot() {
			if m.Name != name || m.Hist == nil {
				continue
			}
			if out == nil {
				h := *m.Hist
				h.Counts = append([]uint64(nil), m.Hist.Counts...)
				out = &h
				continue
			}
			_ = out.Merge(*m.Hist)
		}
	}
	return out
}

func hasLabels(have, want []obs.Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
