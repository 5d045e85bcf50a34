package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// This file holds the benchmark's own model of flow-motif instances,
// written from the paper's Definitions 3.2 and 3.3 without the program's
// graph, matcher or enumerator. Every output the benchmark checks is
// reduced to an inst and judged against a refIndex built straight from the
// generated events.

type pair struct{ u, v temporal.NodeID }

type refEvent struct {
	t int64
	f float64
}

// refIndex holds every ordered node pair's events sorted by time, and each
// node's distinct out-neighbours.
type refIndex struct {
	series map[pair][]refEvent
	out    map[temporal.NodeID][]temporal.NodeID
	nodes  []temporal.NodeID
}

func newRefIndex(evs []temporal.Event) *refIndex {
	ix := &refIndex{series: map[pair][]refEvent{}, out: map[temporal.NodeID][]temporal.NodeID{}}
	seen := map[temporal.NodeID]bool{}
	for _, e := range evs {
		p := pair{e.From, e.To}
		if _, ok := ix.series[p]; !ok && e.From != e.To {
			ix.out[e.From] = append(ix.out[e.From], e.To)
		}
		ix.series[p] = append(ix.series[p], refEvent{e.T, e.F})
		for _, n := range []temporal.NodeID{e.From, e.To} {
			if !seen[n] {
				seen[n] = true
				ix.nodes = append(ix.nodes, n)
			}
		}
	}
	for _, s := range ix.series {
		sort.SliceStable(s, func(i, j int) bool { return s[i].t < s[j].t })
	}
	for _, o := range ix.out {
		sort.Slice(o, func(i, j int) bool { return o[i] < o[j] })
	}
	sort.Slice(ix.nodes, func(i, j int) bool { return ix.nodes[i] < ix.nodes[j] })
	return ix
}

// inst is one instance in graph-independent form: the node bound to each
// motif vertex and, per motif edge, the time interval of its edge-set with
// the set's size and flow.
type inst struct {
	sub         string // subscription, for streamed detections
	nodes       []temporal.NodeID
	first, last []int64
	count       []int
	flows       []float64
	flow        float64
	start, end  int64
}

func (x inst) key() string {
	var b strings.Builder
	fmt.Fprint(&b, x.sub, x.nodes)
	for i := range x.first {
		fmt.Fprintf(&b, "|%d-%d", x.first[i], x.last[i])
	}
	return b.String()
}

// fromInstance reads a core.Instance through the graph it indexes into.
func fromInstance(g *temporal.Graph, in *core.Instance) inst {
	m := len(in.Arcs)
	x := inst{
		nodes: append([]temporal.NodeID(nil), in.Nodes...),
		first: make([]int64, m), last: make([]int64, m),
		count: make([]int, m), flows: append([]float64(nil), in.EdgeFlows...),
		flow: in.Flow, start: in.Start, end: in.End,
	}
	for i, a := range in.Arcs {
		sp := in.Spans[i]
		s := g.Series(a)
		if sp.Start < 0 || sp.Start >= sp.End || int(sp.End) > len(s) {
			x.count[i] = -1
			continue
		}
		x.first[i], x.last[i] = s[sp.Start].T, s[sp.End-1].T
		x.count[i] = int(sp.End - sp.Start)
	}
	return x
}

// fromDetection reads a streamed detection, which carries its events.
func fromDetection(d *stream.Detection) inst {
	m := len(d.Edges)
	x := inst{
		sub:   d.Sub,
		nodes: append([]temporal.NodeID(nil), d.Nodes...),
		first: make([]int64, m), last: make([]int64, m),
		count: make([]int, m), flows: append([]float64(nil), d.EdgeFlows...),
		flow: d.Flow, start: d.Start, end: d.End,
	}
	for i, evs := range d.Edges {
		if len(evs) == 0 {
			x.count[i] = -1
			continue
		}
		x.first[i], x.last[i] = evs[0].T, evs[len(evs)-1].T
		x.count[i] = len(evs)
	}
	return x
}

// flowEq compares two flows computed along different summation paths.
func flowEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// validate checks x against Definition 3.2 (structure, non-empty edge-sets
// that are whole time intervals of their pair's series, strict order
// between consecutive edge-sets, duration within delta, every edge-set's
// flow at least phi, instance flow the minimum) and Definition 3.3
// (maximality: no single event of any pair can join its edge-set).
func validate(ix *refIndex, mo *motif.Motif, delta int64, phi float64, x inst) error {
	m := mo.NumEdges()
	if len(x.nodes) != mo.NumVertices() || len(x.first) != m || len(x.flows) != m {
		return fmt.Errorf("shape: %d nodes, %d edge-sets, %d flows for %d vertices and %d edges",
			len(x.nodes), len(x.first), len(x.flows), mo.NumVertices(), m)
	}
	for i := range x.nodes {
		for j := i + 1; j < len(x.nodes); j++ {
			if x.nodes[i] == x.nodes[j] {
				return fmt.Errorf("vertices %d and %d both bound to node %d", i, j, x.nodes[i])
			}
		}
	}
	minFlow := math.Inf(1)
	for i := 0; i < m; i++ {
		if x.count[i] <= 0 {
			return fmt.Errorf("edge %d: empty or malformed edge-set", i)
		}
		if x.first[i] > x.last[i] {
			return fmt.Errorf("edge %d: interval [%d,%d] reversed", i, x.first[i], x.last[i])
		}
		if i > 0 && x.first[i] <= x.last[i-1] {
			return fmt.Errorf("edge %d starts at %d, not after edge %d ends at %d", i, x.first[i], i-1, x.last[i-1])
		}
		s := ix.series[pair{x.nodes[mo.EdgeSource(i)], x.nodes[mo.EdgeTarget(i)]}]
		lo := sort.Search(len(s), func(k int) bool { return s[k].t >= x.first[i] })
		hi := sort.Search(len(s), func(k int) bool { return s[k].t > x.last[i] })
		if hi-lo != x.count[i] || lo >= len(s) || s[lo].t != x.first[i] || s[hi-1].t != x.last[i] {
			return fmt.Errorf("edge %d: %d events claimed in [%d,%d], the pair has %d there", i, x.count[i], x.first[i], x.last[i], hi-lo)
		}
		sum := 0.0
		for _, e := range s[lo:hi] {
			sum += e.f
		}
		if !flowEq(sum, x.flows[i]) {
			return fmt.Errorf("edge %d: flow %.9g reported, events sum to %.9g", i, x.flows[i], sum)
		}
		if sum < phi && !flowEq(sum, phi) {
			return fmt.Errorf("edge %d: flow %.9g below phi %.9g", i, sum, phi)
		}
		minFlow = math.Min(minFlow, sum)
	}
	start, end := x.first[0], x.last[m-1]
	if end-start > delta {
		return fmt.Errorf("duration %d exceeds delta %d", end-start, delta)
	}
	if x.start != start || x.end != end {
		return fmt.Errorf("span [%d,%d] reported, edge-sets cover [%d,%d]", x.start, x.end, start, end)
	}
	if !flowEq(x.flow, minFlow) {
		return fmt.Errorf("flow %.9g reported, minimum edge-set flow is %.9g", x.flow, minFlow)
	}
	// Maximality: only the nearest event on each side of an edge-set can
	// be a candidate; a farther one that fit would make the nearer fit too.
	for i := 0; i < m; i++ {
		s := ix.series[pair{x.nodes[mo.EdgeSource(i)], x.nodes[mo.EdgeTarget(i)]}]
		lo := sort.Search(len(s), func(k int) bool { return s[k].t >= x.first[i] })
		hi := sort.Search(len(s), func(k int) bool { return s[k].t > x.last[i] })
		if lo > 0 && addable(x, i, s[lo-1].t, delta) {
			return fmt.Errorf("not maximal: edge %d extends back to t=%d", i, s[lo-1].t)
		}
		if hi < len(s) && addable(x, i, s[hi].t, delta) {
			return fmt.Errorf("not maximal: edge %d extends forward to t=%d", i, s[hi].t)
		}
	}
	return nil
}

// addable reports whether an event at time t could join edge-set i of x
// without breaking the strict order or the duration bound.
func addable(x inst, i int, t int64, delta int64) bool {
	m := len(x.first)
	first, last := min(x.first[i], t), max(x.last[i], t)
	if i > 0 && first <= x.last[i-1] {
		return false
	}
	if i+1 < m && last >= x.first[i+1] {
		return false
	}
	return max(x.last[m-1], t)-min(x.first[0], t) <= delta
}

// bruteForce enumerates every maximal instance of mo with the most direct
// search the definitions allow: every injective binding of the motif's
// vertices along its spanning path, then every choice of a time interval
// per motif edge, kept when it meets Definition 3.2 and no single event can
// be added (Definition 3.3, checked event by event). It is exponential and
// meant for short prefixes.
func bruteForce(ix *refIndex, mo *motif.Motif, delta int64, phi float64) []inst {
	path := mo.Path()
	m := mo.NumEdges()
	bind := make([]temporal.NodeID, mo.NumVertices())
	bound := make([]bool, mo.NumVertices())
	series := make([][]refEvent, m)
	var out []inst

	first := make([]int64, m)
	last := make([]int64, m)
	var intervals func(i int)
	intervals = func(i int) {
		if i == m {
			x := inst{nodes: append([]temporal.NodeID(nil), bind...),
				first: append([]int64(nil), first...), last: append([]int64(nil), last...),
				count: make([]int, m), flows: make([]float64, m), flow: math.Inf(1),
				start: first[0], end: last[m-1]}
			for k := 0; k < m; k++ {
				for _, e := range series[k] {
					if e.t >= first[k] && e.t <= last[k] {
						x.count[k]++
						x.flows[k] += e.f
					}
				}
				if x.flows[k] < phi {
					return
				}
				x.flow = math.Min(x.flow, x.flows[k])
			}
			for k := 0; k < m; k++ {
				for _, e := range series[k] {
					if (e.t < first[k] || e.t > last[k]) && addable(x, k, e.t, delta) {
						return
					}
				}
			}
			out = append(out, x)
			return
		}
		s := series[i]
		for a := 0; a < len(s); a++ {
			if a > 0 && s[a].t == s[a-1].t {
				continue // an interval starts at a distinct time
			}
			if i > 0 && (s[a].t <= last[i-1] || s[a].t-first[0] > delta) {
				continue
			}
			first[i] = s[a].t
			for b := a; b < len(s); b++ {
				if b+1 < len(s) && s[b+1].t == s[b].t {
					continue // an interval ends at a distinct time
				}
				if s[b].t-first[0] > delta {
					break
				}
				last[i] = s[b].t
				intervals(i + 1)
			}
		}
	}

	var structural func(pos int)
	structural = func(pos int) {
		if pos == len(path) {
			intervals(0)
			return
		}
		v := path[pos]
		from := bind[path[pos-1]]
		if bound[v] {
			if s, ok := ix.series[pair{from, bind[v]}]; ok {
				series[pos-1] = s
				structural(pos + 1)
			}
			return
		}
		for _, w := range ix.out[from] {
			used := false
			for u := range bind {
				if bound[u] && bind[u] == w {
					used = true
					break
				}
			}
			if used {
				continue
			}
			bind[v], bound[v] = w, true
			series[pos-1] = ix.series[pair{from, w}]
			structural(pos + 1)
			bound[v] = false
		}
	}
	for _, u := range ix.nodes {
		bind[path[0]], bound[path[0]] = u, true
		structural(1)
		bound[path[0]] = false
	}
	return out
}

// sameInstanceSets compares two instance lists as sets of keys, reporting
// the first difference.
func sameInstanceSets(got, want []inst) error {
	seen := map[string]bool{}
	for _, x := range got {
		k := x.key()
		if seen[k] {
			return fmt.Errorf("instance %s reported twice", k)
		}
		seen[k] = true
	}
	for _, x := range want {
		if !seen[x.key()] {
			return fmt.Errorf("instance %s missing (%d reported, %d expected)", x.key(), len(got), len(want))
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d instances reported, %d expected", len(got), len(want))
	}
	return nil
}

// sortedFlows returns the flows best-first.
func sortedFlows(xs []inst) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.flow
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// sameTop checks a reported best-first list against a reference best-first
// list: equal length, equal flows position by position, and every entry
// whose flow is above the last reference flow (so no tie at the cut decides
// its membership) present in the reference.
func sameTop(got, want []inst) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries reported, %d expected", len(got), len(want))
	}
	gf, wf := sortedFlows(got), sortedFlows(want)
	for i := range gf {
		if !flowEq(gf[i], wf[i]) {
			return fmt.Errorf("entry %d: flow %.9g reported, %.9g expected", i, gf[i], wf[i])
		}
	}
	if len(want) == 0 {
		return nil
	}
	cut := wf[len(wf)-1]
	keys := map[string]bool{}
	for _, x := range want {
		keys[x.key()] = true
	}
	for _, x := range got {
		if x.flow > cut && !flowEq(x.flow, cut) && !keys[x.key()] {
			return fmt.Errorf("entry %s (flow %.9g) is not among the reference's best", x.key(), x.flow)
		}
	}
	return nil
}

// topRef keeps the k best instances seen by flow.
type topRef struct {
	k     int
	items []inst
}

func (t *topRef) add(x inst) {
	if len(t.items) < t.k {
		t.items = append(t.items, x)
		if len(t.items) == t.k {
			sort.Slice(t.items, func(i, j int) bool { return t.items[i].flow > t.items[j].flow })
		}
		return
	}
	if x.flow <= t.items[t.k-1].flow {
		return
	}
	i := sort.Search(t.k, func(i int) bool { return t.items[i].flow < x.flow })
	copy(t.items[i+1:], t.items[i:t.k-1])
	t.items[i] = x
}

func (t *topRef) best() []inst {
	out := append([]inst(nil), t.items...)
	sort.Slice(out, func(i, j int) bool { return out[i].flow > out[j].flow })
	return out
}

// subRef is one subscription's batch reference: how many maximal instances
// the whole stream holds and its best k.
type subRef struct {
	count int64
	top   []inst
}

// streamReference computes every subscription's batch reference over a
// stream with the program's batch search (itself checked against the brute
// force by batch-catalog). The stream comes as segments separated in time
// by more than any δ, so no instance spans two and each segment is searched
// on its own graph. Subscriptions sharing a shape and δ share one
// enumeration at their smallest φ: an instance maximal under Definition
// 3.3 stays maximal under any φ, so a subscription's instances are those
// of the group with flow at least its φ, and its best k are the group's
// best k filtered the same way. The (segment, group) searches run on up
// to workers goroutines.
func streamReference(segments [][]temporal.Event, subs []stream.Subscription, k, workers int) (map[string]*subRef, error) {
	type group struct {
		mo    *motif.Motif
		delta int64
		subs  []stream.Subscription // sorted by φ
		phis  []float64
	}
	byKey := map[string]*group{}
	var groups []*group
	for _, s := range subs {
		key := fmt.Sprintf("%s/%d", s.Motif.ShapeKey(), s.Delta)
		gr := byKey[key]
		if gr == nil {
			gr = &group{mo: s.Motif, delta: s.Delta}
			byKey[key] = gr
			groups = append(groups, gr)
		}
		gr.subs = append(gr.subs, s)
	}
	for _, gr := range groups {
		sort.Slice(gr.subs, func(i, j int) bool { return gr.subs[i].Phi < gr.subs[j].Phi })
		for _, s := range gr.subs {
			gr.phis = append(gr.phis, s.Phi)
		}
	}
	graphs := make([]*temporal.Graph, len(segments))
	for i, seg := range segments {
		g, err := temporal.NewGraph(seg)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	// One result per (segment, group) job, merged after all finish.
	type result struct {
		count []int64
		top   topRef
		err   error
	}
	results := make([][]result, len(segments))
	type job struct{ seg, gr int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				g, gr := graphs[j.seg], groups[j.gr]
				res := &results[j.seg][j.gr]
				res.count = make([]int64, len(gr.subs))
				res.top = topRef{k: k}
				_, res.err = core.Enumerate(g, gr.mo, core.Params{Delta: gr.delta, Phi: gr.phis[0], Workers: 1}, func(in *core.Instance) bool {
					n := sort.Search(len(gr.phis), func(i int) bool { return gr.phis[i] > in.Flow })
					for i := 0; i < n; i++ {
						res.count[i]++
					}
					if len(res.top.items) < k || in.Flow > res.top.items[k-1].flow {
						res.top.add(fromInstance(g, in))
					}
					return true
				})
			}
		}()
	}
	for s := range segments {
		results[s] = make([]result, len(groups))
		for gi := range groups {
			jobs <- job{s, gi}
		}
	}
	close(jobs)
	wg.Wait()

	out := map[string]*subRef{}
	for gi, gr := range groups {
		count := make([]int64, len(gr.subs))
		top := topRef{k: k}
		for s := range segments {
			res := results[s][gi]
			if res.err != nil {
				return nil, res.err
			}
			for i, c := range res.count {
				count[i] += c
			}
			for _, x := range res.top.items {
				top.add(x)
			}
		}
		best := top.best()
		for i, s := range gr.subs {
			ref := &subRef{count: count[i]}
			for _, x := range best {
				if x.flow >= s.Phi {
					x.sub = s.ID
					ref.top = append(ref.top, x)
				}
			}
			out[s.ID] = ref
		}
	}
	return out, nil
}
