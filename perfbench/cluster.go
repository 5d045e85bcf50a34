package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/server"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// cluster-catalog: server.Coordinator's JSON front door over a
// cluster.Coordinator whose two HTTPMembers upgrade replication to the
// wire protocol of two wire-armed member daemons (one per core of a
// 2-core machine), with the ten catalog shapes under two (δ, φ) each.
// Distinct shapes make per-shape phase P1 dominate member work. Members are
// in-memory; the coordinator keeps the whole stream as failover history.
// Set-up brings the daemons up, places the subscriptions and replays the
// stream's prefix through the coordinator until every member has applied
// it.
const (
	clusterMembers  = 2
	clusterNodes    = 200
	clusterRate     = 0.75
	clusterPrefix   = 100_000
	clusterSatBatch = 1024
	clusterSatRound = 60_000 // saturated events per cycle
	clusterSetups   = 5      // set-up repetitions; setup_s is their median
	clusterReplay   = 2048   // the coordinator's default coalesce size
)

func clusterSubs() []stream.Subscription {
	var subs []stream.Subscription
	for _, mo := range motif.Catalog() {
		subs = append(subs,
			stream.Subscription{ID: mo.Name() + "/a", Motif: mo, Delta: 300, Phi: 4},
			stream.Subscription{ID: mo.Name() + "/b", Motif: mo, Delta: 600, Phi: 8})
	}
	return subs
}

// clusterRig is a running cluster: member daemons, coordinator, front door.
type clusterRig struct {
	members []*httpDaemon
	remotes []*cluster.HTTPMember
	coord   *cluster.Coordinator
	front   *httpDaemon
}

func startCluster(subs []stream.Subscription) (*clusterRig, error) {
	rig := &clusterRig{}
	var members []cluster.Member
	for i := 0; i < clusterMembers; i++ {
		d, err := startDaemon(server.Config{Member: true, Workers: 1, Recent: daemonRecent, TopK: daemonTopK})
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.members = append(rig.members, d)
		m := cluster.NewHTTPMember(fmt.Sprintf("m%d", i), d.url, nil)
		rig.remotes = append(rig.remotes, m)
		members = append(members, m)
	}
	c, err := cluster.New(cluster.Config{Members: members, Subs: subs})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.coord = c
	if rig.front, err = serveHTTP(server.NewCoordinator(c, 0).Handler()); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (rig *clusterRig) close() {
	if rig.front != nil {
		rig.front.close()
	}
	if rig.coord != nil {
		rig.coord.Close()
	}
	for _, m := range rig.remotes {
		m.CloseWire()
	}
	for _, d := range rig.members {
		d.close()
	}
}

// memberRegs returns the member daemons' metric registries.
func (rig *clusterRig) memberRegs() []*obs.Registry {
	var regs []*obs.Registry
	for _, d := range rig.members {
		regs = append(regs, d.srv.Obs())
	}
	return regs
}

type jsonEvent struct {
	From temporal.NodeID `json:"from"`
	To   temporal.NodeID `json:"to"`
	T    int64           `json:"t"`
	F    float64         `json:"f"`
}

// ingestBodies encodes each batch as a JSON /ingest body.
func ingestBodies(bs [][]temporal.Event) ([][]byte, error) {
	out := make([][]byte, len(bs))
	for i, b := range bs {
		req := struct {
			Events []jsonEvent `json:"events"`
		}{Events: make([]jsonEvent, len(b))}
		for j, e := range b {
			req.Events[j] = jsonEvent(e)
		}
		var err error
		if out[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runClusterCatalog(r *run) error {
	evs, err := denseStream(r.seed, clusterNodes, streamEvents(clusterPrefix, clusterSatRound), clusterRate)
	if err != nil {
		return err
	}
	prefix := evs[:clusterPrefix]
	cycles := makeCycles(evs[clusterPrefix:], clusterSatBatch)
	subs := clusterSubs()
	var sent [][]temporal.Event // in send order
	for _, c := range cycles {
		sent = append(append(sent, c.paced...), c.saturated...)
	}
	bodies, err := ingestBodies(sent)
	if err != nil {
		return err
	}
	settle()
	rss := sampleRSS()

	var setups []float64
	var rig *clusterRig
	for i := 0; i < clusterSetups; i++ {
		t0 := time.Now()
		rig, err = startCluster(subs)
		r.op("setup", err)
		if err != nil {
			return err
		}
		for _, b := range batches(prefix, clusterReplay) {
			_, err := rig.coord.Ingest(b)
			r.op("replay", err)
			if err != nil {
				rig.close()
				return err
			}
		}
		err = rig.coord.Drain()
		setups = append(setups, time.Since(t0).Seconds())
		r.op("setup", err)
		if err != nil {
			rig.close()
			return err
		}
		if i < clusterSetups-1 {
			rig.close()
		}
		settle()
	}
	defer rig.close()

	base := rig.front.url
	ingest := func(i int, b []temporal.Event) error {
		var ack cluster.IngestAck
		err := postBody(base+"/ingest", bodies[i], &ack)
		if err == nil && (ack.Ingested != len(b) || ack.Watermark != b[len(b)-1].T) {
			err = fmt.Errorf("ack %+v for %d events ending at t=%d", ack, len(b), b[len(b)-1].T)
		}
		return err
	}
	var tc *clusterTrace
	hooks := phaseHooks{}
	if r.traced {
		tc = &clusterTrace{rig: rig}
		hooks = phaseHooks{beforeRound: tc.beforeRound, beforeFlush: tc.beforeFlush, afterRound: tc.afterRound}
	}
	ph, err := streamPhases(r, base, cycles, ingest, hooks)
	if err != nil {
		return err
	}
	ph.report(r, median(setups), rss.stop())
	r.info["setup_s"] = setups
	if tc != nil {
		if err := tc.report(r, ph, sent); err != nil {
			return err
		}
	}

	checkStart := time.Now()
	defer func() { r.info["check_s"] = time.Since(checkStart).Seconds() }()
	// Checks.
	st := rig.coord.Stats()
	r.check(st.Downs == 0 && st.Moves == 0 && !st.Degraded, "cluster saw downs=%d moves=%d degraded=%v", st.Downs, st.Moves, st.Degraded)
	for _, m := range rig.remotes {
		r.check(m.UsingWire(), "member %s replicated over JSON, not the wire protocol", m.ID())
	}
	refs, err := streamReference(segments(prefix, cycles), subs, daemonTopK, 2)
	if err != nil {
		return err
	}
	ix := newRefIndex(evs)
	counts := map[string]int64{}
	for _, d := range rig.members {
		var stats struct {
			Engine stream.Stats `json:"engine"`
		}
		if err := getJSON(d.url+"/stats", &stats); err != nil {
			return err
		}
		for _, s := range stats.Engine.Subs {
			counts[s.ID] += s.Detections
		}
	}
	var detections int64
	for _, sub := range subs {
		ref := refs[sub.ID]
		detections += ref.count
		r.check(counts[sub.ID] == ref.count, "%s: %d detections streamed, batch reference has %d", sub.ID, counts[sub.ID], ref.count)
		var ans queryAnswer
		if err := getJSON(base+"/topk?k=50&sub="+url.QueryEscape(sub.ID), &ans); err != nil {
			return err
		}
		checkDetections(r, ix, sub, ans.Instances, ref.top)
	}
	r.info["detections"] = detections
	r.check(detections > 0, "no detection in the stream; the checks would be vacuous")
	checkRecent(r, ix, subs, ph.lastPage)
	checkMergedTop(r, ph.lastTop, subs, refs, queryK)
	return nil
}

// postBody posts a pre-encoded JSON body and decodes the answer into v.
func postBody(url string, body []byte, v any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResponse(resp, v)
}

// clusterTrace collects the traced run's layer readings: the program's
// own histograms through the coordinator's and members' Obs registries,
// member engine counters, and in-process calls into wire and cluster.
type clusterTrace struct {
	rig      *clusterRig
	stages0  map[string]float64 // member stage sums when the round began
	wire0    []float64          // per member wire decode+apply seconds when the round began
	stages   map[string]float64 // member stage sums over the saturated rounds
	wire     []float64          // per member wire decode+apply seconds over the saturated rounds
	retained int
}

func (tc *clusterTrace) memberWire() []float64 {
	var out []float64
	for _, reg := range tc.rig.memberRegs() {
		dec, _ := histSum(reg, "flowmotif_wire_decode_seconds")
		app, _ := histSum(reg, "flowmotif_wire_apply_seconds")
		out = append(out, dec+app)
	}
	return out
}

func (tc *clusterTrace) beforeRound() {
	tc.stages0 = stageSums(tc.rig.memberRegs())
	tc.wire0 = tc.memberWire()
}

func (tc *clusterTrace) beforeFlush(last bool) {
	if !last {
		return
	}
	for _, d := range tc.rig.members {
		tc.retained += d.srv.Engine().Stats().EventsRetained
	}
}

func (tc *clusterTrace) afterRound() {
	if tc.stages == nil {
		tc.stages = map[string]float64{}
		tc.wire = make([]float64, len(tc.rig.members))
	}
	for name, v := range stageSums(tc.rig.memberRegs()) {
		tc.stages[name] += v - tc.stages0[name]
	}
	for i, v := range tc.memberWire() {
		tc.wire[i] += v - tc.wire0[i]
	}
}

func (tc *clusterTrace) report(r *run, ph *phases, sent [][]temporal.Event) error {
	rig := tc.rig
	cregs := []*obs.Registry{rig.coord.Obs()}
	lag := histMerged(cregs, "flowmotif_replication_lag_seconds")
	deliver := histMerged(cregs, "flowmotif_replication_deliver_seconds")
	coalesce := histMerged(cregs, "flowmotif_replication_coalesce_events")
	apply := histMerged(rig.memberRegs(), "flowmotif_wire_apply_seconds")
	if lag == nil || deliver == nil || coalesce == nil || apply == nil || deliver.Count == 0 || lag.Count == 0 {
		return fmt.Errorf("replication histograms missing from the registries")
	}
	mean := func(h *obs.HistogramSnapshot) float64 { return h.Sum / float64(h.Count) }
	r.set("cluster.queue_wait_ms", 1000*(mean(lag)-mean(deliver)))
	r.set("cluster.deliver_ms", 1000*mean(deliver))
	r.set("cluster.coalesce_events", mean(coalesce))
	r.set("cluster.deliveries", float64(deliver.Count))
	r.set("wire.apply_ms", 1000*apply.Quantile(0.5))

	var stats []stream.Stats
	var busy []float64
	for _, d := range rig.members {
		stats = append(stats, d.srv.Engine().Stats())
		rounds, _ := histSum(d.srv.Obs(), "flowmotif_finalize_round_seconds")
		busy = append(busy, rounds)
	}
	setEngineLayers(r, tc.stages, stats)
	r.set("stream.retained_events", float64(tc.retained))
	maxBusy, sumBusy := 0.0, 0.0
	for _, b := range busy {
		maxBusy = max(maxBusy, b)
		sumBusy += b
	}
	if sumBusy > 0 {
		r.set("cluster.member_busy_skew", maxBusy/(sumBusy/float64(len(busy))))
	}
	r.set("cluster.history_events", float64(rig.coord.Stats().HistoryEvents))
	r.set("server.front_door_ms", median(ph.acks))

	// The critical-path member's own wire work during the saturated rounds
	// against their wall clock; the rest is front door, coordinator log,
	// replication transport and scheduling.
	critical := 0.0
	for _, w := range tc.wire {
		critical = max(critical, w)
	}
	n := float64(ph.satEvs)
	r.set("server.unattributed_ns_per_event", (ph.satWall.Seconds()-critical)*1e9/n)
	r.set("bench.layer_coverage", critical/ph.satWall.Seconds())

	// In-process layer calls: the replication frames' wire encode/decode
	// (coalesce-sized batches), and the scatter-gather queries.
	var evs []temporal.Event
	for _, b := range sent {
		evs = append(evs, b...)
	}
	frames := batches(evs, clusterReplay)
	// The pass is short, so alternate several untraced and traced passes.
	tr := newTracer()
	var tracedWall, plainWall time.Duration
	for i := 0; i < 5; i++ {
		w, err := codecPass(nil, frames)
		if err != nil {
			return err
		}
		plainWall += w
		if w, err = codecPass(tr, frames); err != nil {
			return err
		}
		tracedWall += w
	}
	self := tr.self()
	n = float64(5 * len(evs))
	r.set("wire.encode_ns_per_event", float64(self["wire.encode"].Nanoseconds())/n)
	r.set("wire.decode_ns_per_event", float64(self["wire.decode"].Nanoseconds())/n)
	r.set("bench.trace_overhead", tracedWall.Seconds()/plainWall.Seconds()-1)

	var gathers []float64
	for i := 0; i < minQueryRounds; i++ {
		g0 := time.Now()
		top, _, err := rig.coord.TopK("", queryK)
		if err == nil {
			_, _, err = rig.coord.Instances("", queryPage)
		}
		gathers = append(gathers, ms(time.Since(g0)))
		if err != nil {
			return err
		}
		if len(top) == 0 {
			return fmt.Errorf("in-process gather answered nothing")
		}
	}
	r.set("cluster.gather_ms", median(gathers))
	return nil
}

// codecPass encodes and decodes every frame once, with spans when tr is on.
func codecPass(tr *tracer, frames [][]temporal.Event) (time.Duration, error) {
	wc := newCodec()
	t0 := time.Now()
	for _, b := range frames {
		evs, err := wc.roundTrip(tr, b)
		if err != nil {
			return 0, err
		}
		if len(evs) != len(b) {
			return 0, fmt.Errorf("decoded %d events of %d", len(evs), len(b))
		}
	}
	return time.Since(t0), nil
}
