package main

import (
	"fmt"
	"strings"
	"testing"

	"flowmotif"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// tiny is a hand-computed case: with δ=25 and φ=3 the triangle M(3,3) has
// exactly one maximal instance, 0→1 at {10,12} (flow 7), 1→2 at {20} (4),
// 2→0 at {30} (6): flow 4 over [10,30]. The 2→0 event at t=100 is outside
// every window; the rotations of the triangle find no ordered completion.
var tiny = []temporal.Event{
	{From: 0, To: 1, T: 10, F: 5},
	{From: 0, To: 1, T: 12, F: 2},
	{From: 1, To: 2, T: 20, F: 4},
	{From: 2, To: 0, T: 30, F: 6},
	{From: 2, To: 0, T: 100, F: 1},
}

const tinyDelta, tinyPhi = 25, 3

func tinyInstance() inst {
	return inst{
		nodes: []temporal.NodeID{0, 1, 2},
		first: []int64{10, 20, 30}, last: []int64{12, 20, 30},
		count: []int{2, 1, 1}, flows: []float64{7, 4, 6},
		flow: 4, start: 10, end: 30,
	}
}

func triangle(t *testing.T) *motif.Motif {
	t.Helper()
	m, ok := motif.CatalogByName("M(3,3)")
	if !ok {
		t.Fatal("no M(3,3) in the catalog")
	}
	return m
}

func TestTinyGraphByHand(t *testing.T) {
	mo := triangle(t)
	ix := newRefIndex(tiny)
	want := []inst{tinyInstance()}
	if err := validate(ix, mo, tinyDelta, tinyPhi, want[0]); err != nil {
		t.Fatalf("hand-computed instance rejected: %v", err)
	}
	if err := sameInstanceSets(bruteForce(ix, mo, tinyDelta, tinyPhi), want); err != nil {
		t.Fatalf("brute force: %v", err)
	}
	g, err := temporal.NewGraph(tiny)
	if err != nil {
		t.Fatal(err)
	}
	found, err := flowmotif.FindInstances(g, mo, flowmotif.Params{Delta: tinyDelta, Phi: tinyPhi})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]inst, len(found))
	for i, in := range found {
		got[i] = fromInstance(g, in)
	}
	if err := sameInstanceSets(got, want); err != nil {
		t.Fatalf("FindInstances: %v", err)
	}
	if f, err := flowmotif.TopOneFlow(g, mo, tinyDelta); err != nil || f != 4 {
		t.Fatalf("TopOneFlow = %v, %v; want 4", f, err)
	}
	if len(bruteForce(ix, mo, tinyDelta, 5)) != 0 {
		t.Fatal("φ=5 leaves no instance: the 1→2 edge-set carries 4")
	}
}

// Each corruption of a valid instance must be rejected by the validator.
func TestValidateRejectsCorruptions(t *testing.T) {
	mo := triangle(t)
	ix := newRefIndex(tiny)
	cases := []struct {
		name         string
		delta        int64
		phi          float64
		corrupt      func(*inst)
		wantFragment string
	}{
		{"dropped first event", tinyDelta, 0, func(x *inst) { x.first[0], x.count[0], x.flows[0], x.start = 12, 1, 2, 12; x.flow = 2 }, "not maximal"},
		{"edge flow", tinyDelta, tinyPhi, func(x *inst) { x.flows[1] = 4.5 }, "events sum"},
		{"instance flow", tinyDelta, tinyPhi, func(x *inst) { x.flow = 6 }, "minimum edge-set flow"},
		{"window", 15, tinyPhi, func(x *inst) {}, "exceeds delta"},
		{"phi", tinyDelta, 5, func(x *inst) {}, "below phi"},
		{"binding", tinyDelta, tinyPhi, func(x *inst) { x.nodes[2] = 0 }, "both bound"},
		{"span", tinyDelta, tinyPhi, func(x *inst) { x.start = 11 }, "span"},
		{"event count", tinyDelta, tinyPhi, func(x *inst) { x.count[0] = 1 }, "events claimed"},
		{"order", tinyDelta, tinyPhi, func(x *inst) { x.first[1] = 12 }, "not after"},
		{"empty edge-set", tinyDelta, tinyPhi, func(x *inst) { x.count[2] = 0 }, "empty"},
	}
	for _, c := range cases {
		x := tinyInstance()
		c.corrupt(&x)
		err := validate(ix, mo, c.delta, c.phi, x)
		if err == nil || !strings.Contains(err.Error(), c.wantFragment) {
			t.Errorf("%s: validate = %v, want an error containing %q", c.name, err, c.wantFragment)
		}
	}
}

func TestSetAndTopComparisonsRejectCorruptions(t *testing.T) {
	a := tinyInstance()
	b := tinyInstance()
	b.nodes = []temporal.NodeID{3, 4, 5}
	b.flow = 9
	if err := sameInstanceSets([]inst{a, b}, []inst{b, a}); err != nil {
		t.Fatalf("equal sets: %v", err)
	}
	for name, got := range map[string][]inst{
		"missing":   {a},
		"duplicate": {a, a, b},
		"extra":     {a, b, func() inst { c := b; c.nodes = []temporal.NodeID{7, 8, 9}; return c }()},
	} {
		if sameInstanceSets(got, []inst{a, b}) == nil {
			t.Errorf("%s instance not caught", name)
		}
	}
	if err := sameTop([]inst{b, a}, []inst{b, a}); err != nil {
		t.Fatalf("equal tops: %v", err)
	}
	wrongFlow := a
	wrongFlow.flow = 5
	stranger := b
	stranger.nodes = []temporal.NodeID{7, 8, 9}
	for name, got := range map[string][]inst{
		"wrong flow": {b, wrongFlow},
		"short":      {b},
		"stranger":   {stranger, a},
	} {
		if sameTop(got, []inst{b, a}) == nil {
			t.Errorf("top list with %s not caught", name)
		}
	}
}

func smallNetwork(t *testing.T) []temporal.Event {
	t.Helper()
	evs, err := gen.Bitcoin(gen.BitcoinConfig{Nodes: 300, SeedTxns: 1200, Duration: 3 * 86400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// The batch search equals the brute force over the whole catalog, and the
// catalog checks accept its answers but reject corrupted ones.
func TestCatalogChecks(t *testing.T) {
	evs := smallNetwork(t)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	catalog := motif.Catalog()
	answer := func() []catalogAnswer {
		out := make([]catalogAnswer, len(catalog))
		for i, mo := range catalog {
			a := &out[i]
			if a.found, err = flowmotif.FindInstances(g, mo, flowmotif.Params{Delta: batchDelta, Phi: batchPhi}); err != nil {
				t.Fatal(err)
			}
			if a.top, err = flowmotif.TopK(g, mo, batchDelta, batchTopK); err != nil {
				t.Fatal(err)
			}
			if a.flow, err = flowmotif.TopOneFlow(g, mo, batchDelta); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	r := newTestRun()
	checkCatalog(r, g, evs, catalog, answer())
	if len(r.failures) > 0 {
		t.Fatalf("correct answers rejected: %v", r.failures)
	}
	if r.info["brute_force_instances"].(int) == 0 {
		t.Fatal("the brute-force comparison was vacuous")
	}

	busiest := 0
	base := answer()
	for i, a := range base {
		if len(a.found) > len(base[busiest].found) {
			busiest = i
		}
	}
	mutations := map[string]func(a *catalogAnswer){
		"instance dropped":    func(a *catalogAnswer) { a.found = a.found[1:] },
		"instance duplicated": func(a *catalogAnswer) { a.found = append(a.found, a.found[0]) },
		"top-1 flow off":      func(a *catalogAnswer) { a.flow *= 1.01 },
		"top-k flow off": func(a *catalogAnswer) {
			c := a.top[0].Clone()
			c.Flow *= 0.99
			a.top[0] = c
		},
		"span shifted": func(a *catalogAnswer) {
			c := a.found[0].Clone()
			c.Spans[0].Start++
			a.found[0] = c
		},
	}
	for name, mutate := range mutations {
		answers := answer()
		mutate(&answers[busiest])
		r := newTestRun()
		checkCatalog(r, g, evs, catalog, answers)
		if len(r.failures) == 0 {
			t.Errorf("%s on %s not caught", name, catalog[busiest].Name())
		}
	}
}

// A streamed run equals the batch reference, and corrupted detections are
// caught by the per-subscription checks.
func TestStreamReferenceAndDetectionChecks(t *testing.T) {
	evs, err := denseStream(5, 60, 6000, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	var subs []stream.Subscription
	for i, mo := range motif.Catalog()[:4] {
		subs = append(subs, stream.Subscription{ID: fmt.Sprintf("s%d", i), Motif: mo, Delta: 300, Phi: 3 + float64(i)})
	}
	topk := stream.NewTopKSink(daemonTopK)
	eng, err := stream.NewEngine(stream.Config{Subs: subs, Workers: 1}, topk)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches(evs, 500) {
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	refs, err := streamReference([][]temporal.Event{evs}, subs, daemonTopK, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix := newRefIndex(evs)
	counts := map[string]int64{}
	for _, s := range eng.Stats().Subs {
		counts[s.ID] = s.Detections
	}
	total := int64(0)
	for _, s := range subs {
		if counts[s.ID] != refs[s.ID].count {
			t.Errorf("%s: %d streamed, reference %d", s.ID, counts[s.ID], refs[s.ID].count)
		}
		total += counts[s.ID]
		r := newTestRun()
		checkDetections(r, ix, s, topk.Top(s.ID), refs[s.ID].top)
		if len(r.failures) > 0 {
			t.Errorf("%s: correct top-k rejected: %v", s.ID, r.failures)
		}
	}
	if total == 0 {
		t.Fatal("no detection; the comparison was vacuous")
	}
	s := subs[0]
	top := topk.Top(s.ID)
	if len(top) < 2 {
		t.Fatalf("%s: too few detections to corrupt", s.ID)
	}
	for name, mutate := range map[string]func([]*stream.Detection) []*stream.Detection{
		"flow":    func(ds []*stream.Detection) []*stream.Detection { c := *ds[0]; c.Flow++; ds[0] = &c; return ds },
		"dropped": func(ds []*stream.Detection) []*stream.Detection { return ds[1:] },
		"event": func(ds []*stream.Detection) []*stream.Detection {
			c := *ds[0]
			c.Edges = append([][]temporal.Point(nil), c.Edges...)
			c.Edges[0] = c.Edges[0][:len(c.Edges[0]):len(c.Edges[0])]
			c.Edges[0] = append(c.Edges[0], temporal.Point{T: c.Edges[0][len(c.Edges[0])-1].T, F: 1})
			ds[0] = &c
			return ds
		},
		"twice": func(ds []*stream.Detection) []*stream.Detection { return append(ds[:len(ds)-1], ds[0]) },
	} {
		r := newTestRun()
		checkDetections(r, ix, s, mutate(append([]*stream.Detection(nil), top...)), refs[s.ID].top)
		if len(r.failures) == 0 {
			t.Errorf("%s corruption not caught", name)
		}
	}
}

func newTestRun() *run {
	return &run{ops: map[string]*opCount{}, metrics: map[string]float64{}, info: map[string]any{}}
}
