package main

import (
	"fmt"
	"net/url"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/obs"
	"flowmotif/internal/server"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// serve-shared: one durable daemon fed over the wire protocol, with 100
// subscriptions on one shape (M(3,3)) across three δ and many φ, so the
// shared planner runs phase P1 once per round and fan-out plus detection
// materialization dominate. Set-up is a crash restart: an earlier instance
// ingested the stream's prefix and stopped without a snapshot, so the
// restart replays that WAL prefix.
const (
	serveNodes    = 200
	serveRate     = 0.75 // events per time unit
	servePrefix   = 300_000
	serveSatBatch = 1024
	serveSatRound = 200_000 // saturated events per cycle
	serveRestarts = 5       // set-up repetitions; setup_s is their median
)

func serveSubs() []stream.Subscription {
	tri := motifByName("M(3,3)")
	deltas := []int64{300, 600, 900}
	subs := make([]stream.Subscription, 100)
	for i := range subs {
		subs[i] = stream.Subscription{
			ID:    fmt.Sprintf("s%02d", i),
			Motif: tri,
			Delta: deltas[i%len(deltas)],
			Phi:   3 + 0.25*float64(i/len(deltas)),
		}
	}
	return subs
}

func serveConfig(subs []stream.Subscription, dir string) server.Config {
	return server.Config{Subs: subs, Workers: 1, Recent: daemonRecent, TopK: daemonTopK, DataDir: dir}
}

func runServeShared(r *run) error {
	evs, err := denseStream(r.seed, serveNodes, streamEvents(servePrefix, serveSatRound), serveRate)
	if err != nil {
		return err
	}
	prefix := evs[:servePrefix]
	cycles := makeCycles(evs[servePrefix:], serveSatBatch)
	subs := serveSubs()

	// The earlier instance: ingest the prefix over the wire, then stop
	// without a clean shutdown.
	crashed := scratchPath(r, "crashed")
	if err := crashedInstance(subs, crashed, prefix); err != nil {
		return fmt.Errorf("earlier instance: %w", err)
	}
	settle()
	rss := sampleRSS()
	var setups []float64
	var d *httpDaemon
	for i := 0; i < serveRestarts; i++ {
		dir := scratchPath(r, fmt.Sprintf("restart-%d", i))
		if err := copyDir(crashed, dir); err != nil {
			return err
		}
		t0 := time.Now()
		d, err = startDaemon(serveConfig(subs, dir))
		setups = append(setups, time.Since(t0).Seconds())
		r.op("restart", err)
		if err != nil {
			return err
		}
		rec := d.srv.Recovery()
		r.check(!rec.FromSnapshot && rec.Replayed == int64(len(prefix)),
			"restart %d recovered %+v, want a %d-event WAL replay", i, rec, len(prefix))
		if i < serveRestarts-1 {
			if err := d.close(); err != nil {
				return err
			}
		}
		settle()
	}
	defer d.close()

	wc, err := wire.Dial(d.wireAddr, 0)
	if err != nil {
		return err
	}
	defer wc.Close()
	ingest := func(_ int, b []temporal.Event) error {
		ack, err := wc.Ingest(0, "", b)
		if err == nil && (ack.Ingested != int64(len(b)) || ack.Watermark != b[len(b)-1].T) {
			err = fmt.Errorf("ack %+v for %d events ending at t=%d", ack, len(b), b[len(b)-1].T)
		}
		return err
	}
	ph, err := streamPhases(r, d.url, cycles, ingest, phaseHooks{})
	if err != nil {
		return err
	}
	ph.report(r, median(setups), rss.stop())
	r.info["setup_s"] = setups

	if r.traced {
		if err := traceServeShared(r, subs, crashed, cycles, ph); err != nil {
			return err
		}
	}

	checkStart := time.Now()
	defer func() { r.info["check_s"] = time.Since(checkStart).Seconds() }()
	// Checks: every subscription's count and top-k against the batch
	// reference over the whole stream, exactly once across the restart.
	refs, err := streamReference(segments(prefix, cycles), subs, daemonTopK, 2)
	if err != nil {
		return err
	}
	ix := newRefIndex(evs)
	var stats struct {
		Engine stream.Stats `json:"engine"`
	}
	if err := getJSON(d.url+"/stats", &stats); err != nil {
		return err
	}
	counts := map[string]int64{}
	for _, s := range stats.Engine.Subs {
		counts[s.ID] = s.Detections
	}
	var detections int64
	for _, sub := range subs {
		ref := refs[sub.ID]
		detections += ref.count
		r.check(counts[sub.ID] == ref.count, "%s: %d detections streamed, batch reference has %d", sub.ID, counts[sub.ID], ref.count)
		var ans queryAnswer
		if err := getJSON(d.url+"/topk?k=50&sub="+url.QueryEscape(sub.ID), &ans); err != nil {
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

// crashedInstance runs a durable daemon over dir, feeds it prefix over
// the wire and stops it without snapshot or close, as a crash would.
func crashedInstance(subs []stream.Subscription, dir string, prefix []temporal.Event) error {
	d, err := startDaemon(serveConfig(subs, dir))
	if err != nil {
		return err
	}
	defer d.stop()
	wc, err := wire.Dial(d.wireAddr, 0)
	if err != nil {
		return err
	}
	defer wc.Close()
	for _, b := range batches(prefix, serveSatBatch) {
		if _, err := wc.Ingest(0, "", b); err != nil {
			return err
		}
	}
	return nil
}

// detectionEvents counts the events the detections carry (the bulk of a
// query answer).
func detectionEvents(ds []*stream.Detection) int {
	n := 0
	for _, d := range ds {
		for _, e := range d.Edges {
			n += len(e)
		}
	}
	return n
}

// checkDetections checks one subscription's reported best list: every
// entry valid and maximal by the benchmark's validator, no duplicates, and
// the flows and members the batch reference has.
func checkDetections(r *run, ix *refIndex, sub stream.Subscription, got []*stream.Detection, want []inst) {
	xs := make([]inst, len(got))
	for i, d := range got {
		xs[i] = fromDetection(d)
		if d.Sub != sub.ID {
			r.check(false, "%s: top-k entry %d belongs to %q", sub.ID, i, d.Sub)
			return
		}
		if err := validate(ix, sub.Motif, sub.Delta, sub.Phi, xs[i]); err != nil {
			r.check(false, "%s: top-k entry %d: %v", sub.ID, i, err)
			return
		}
	}
	if err := sameInstanceSets(xs, xs); err != nil {
		r.check(false, "%s: top-k: %v", sub.ID, err)
	}
	if err := sameTop(xs, want); err != nil {
		r.check(false, "%s: top-k differs from the batch reference: %v", sub.ID, err)
	}
}

// checkRecent validates the last page of recent instances the query phase
// read.
func checkRecent(r *run, ix *refIndex, subs []stream.Subscription, page []*stream.Detection) {
	byID := map[string]stream.Subscription{}
	for _, s := range subs {
		byID[s.ID] = s
	}
	r.check(len(page) == queryPage, "recent page holds %d instances, asked for %d", len(page), queryPage)
	for i, d := range page {
		sub, ok := byID[d.Sub]
		if !ok {
			r.check(false, "recent instance %d names unknown subscription %q", i, d.Sub)
			return
		}
		if err := validate(ix, sub.Motif, sub.Delta, sub.Phi, fromDetection(d)); err != nil {
			r.check(false, "recent instance %d (%s): %v", i, d.Sub, err)
			return
		}
	}
}

// checkMergedTop checks a merged top-k across subscriptions against the
// merge of the per-subscription references: the same flows position by
// position, and every entry among its subscription's reference best unless
// its flow ties that subscription's cut (then either tied instance is
// right).
func checkMergedTop(r *run, got []*stream.Detection, subs []stream.Subscription, refs map[string]*subRef, k int) {
	all := topRef{k: k}
	keys := map[string]bool{}
	for _, s := range subs {
		for _, x := range refs[s.ID].top {
			all.add(x)
			keys[x.key()] = true
		}
	}
	want := sortedFlows(all.best())
	xs := make([]inst, len(got))
	for i, d := range got {
		xs[i] = fromDetection(d)
	}
	have := sortedFlows(xs)
	if len(have) != len(want) {
		r.check(false, "merged top-%d holds %d entries, the merged references %d", k, len(have), len(want))
		return
	}
	for i := range have {
		if !flowEq(have[i], want[i]) {
			r.check(false, "merged top-%d entry %d: flow %.9g, merged references %.9g", k, i, have[i], want[i])
			return
		}
	}
	for _, x := range xs {
		ref := refs[x.sub]
		if ref == nil {
			r.check(false, "merged top-%d entry %s names an unknown subscription", k, x.key())
			return
		}
		tied := len(ref.top) == daemonTopK && flowEq(x.flow, ref.top[len(ref.top)-1].flow)
		if !tied && !keys[x.key()] {
			r.check(false, "merged top-%d entry %s (flow %.9g) is not among its subscription's reference best", k, x.key(), x.flow)
			return
		}
	}
}

// traceServeShared is the traced run's layer pass: the daemon's path
// replayed in-process, one public call per layer, in the order the daemon
// makes them — store replay and engine re-ingest at restart; then per
// batch wire encode (client), wire decode, engine ingest with the daemon's
// sinks, WAL append — with a span around each call. Passes without spans
// give the tracing overhead.
func traceServeShared(r *run, subs []stream.Subscription, crashed string, cycles []cycle, ph *phases) error {
	// Untraced passes on both sides of the traced one, so warm-up and
	// drift fall on neither side of the overhead.
	plain, err := serveLayerPass(r, subs, crashed, "layer-plain", cycles, nil)
	if err != nil {
		return err
	}
	traced, err := serveLayerPass(r, subs, crashed, "layer-traced", cycles, newTracer())
	if err != nil {
		return err
	}
	plain2, err := serveLayerPass(r, subs, crashed, "layer-plain2", cycles, nil)
	if err != nil {
		return err
	}
	tr := traced.tr
	self := tr.self()
	n := float64(ph.satEvs)
	perEvent := func(name string) float64 { return float64(self[name].Nanoseconds()) / n }
	r.set("store.replay_s", self["store.replay"].Seconds())
	r.set("stream.recover_s", self["stream.recover"].Seconds())
	r.set("wire.encode_ns_per_event", perEvent("wire.encode"))
	r.set("wire.decode_ns_per_event", perEvent("wire.decode"))
	r.set("store.append_ns_per_event", perEvent("store.append"))
	r.set("store.bytes_per_event", float64(traced.walBytes)/n)
	r.set("stream.ingest_ns_per_event", perEvent("stream.ingest"))
	setEngineLayers(r, traced.stages, []stream.Stats{traced.eng.Stats()})
	r.set("stream.allocs_per_detection", float64(traced.allocs)/float64(traced.detections))
	r.set("stream.retained_events", float64(traced.retained))
	r.set("server.query_us", traced.queryUS)
	r.set("server.front_door_ms", median(ph.acks))
	layers := self["wire.encode"] + self["wire.decode"] + self["store.append"] + self["stream.ingest"]
	r.set("server.unattributed_ns_per_event", float64(ph.satWall.Nanoseconds())/n-float64(layers.Nanoseconds())/n)
	coverage := layers.Seconds() / traced.wall.Seconds()
	r.set("bench.layer_coverage", coverage)
	r.check(coverage >= 1-reconcileTolerance && coverage <= 1, "layer self-times cover %.3f of the traced wall clock", coverage)
	r.set("bench.trace_overhead", 2*traced.wall.Seconds()/(plain.wall+plain2.wall).Seconds()-1)
	r.check(traced.detections == plain.detections, "traced and untraced layer passes detected %d and %d", traced.detections, plain.detections)
	return nil
}

// layerPass is one in-process replay of the daemon's path.
type layerPass struct {
	tr         *tracer
	eng        *stream.Engine
	stages     map[string]float64 // stage sums over the saturated rounds
	wall       time.Duration      // saturated rounds
	walBytes   int64
	allocs     uint64
	detections int64
	retained   int
	queryUS    float64
}

func serveLayerPass(r *run, subs []stream.Subscription, crashed, name string, cycles []cycle, tr *tracer) (*layerPass, error) {
	dir := scratchPath(r, name)
	if err := copyDir(crashed, dir); err != nil {
		return nil, err
	}
	lp := &layerPass{tr: tr}
	reg := obs.NewRegistry()
	sp := tr.start("store.replay")
	st, err := store.Open(dir, store.Options{Obs: reg})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var replayed []temporal.Event
	err = st.Replay(0, func(_ int64, ev temporal.Event) bool {
		replayed = append(replayed, ev)
		return true
	})
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	recent, topk := stream.NewMemorySink(daemonRecent), stream.NewTopKSink(daemonTopK)
	eng, err := stream.NewEngine(stream.Config{Subs: subs, Workers: 1, Obs: reg}, stream.MultiSink{recent, topk})
	if err != nil {
		return nil, err
	}
	lp.eng = eng
	sp = tr.start("stream.recover")
	for _, b := range batches(replayed, 4096) { // the server's recovery batch
		if _, err := eng.Ingest(b); err != nil {
			return nil, err
		}
	}
	tr.stop(sp)
	wc := newCodec()
	apply := func(b []temporal.Event, tr *tracer, count bool) error {
		evs, err := wc.roundTrip(tr, b)
		if err != nil {
			return err
		}
		a0 := heapAllocs()
		sp := tr.start("stream.ingest")
		_, err = eng.IngestWithAck(evs)
		tr.stop(sp)
		if count {
			lp.allocs += heapAllocs() - a0
		}
		if err != nil {
			return err
		}
		sp = tr.start("store.append")
		err = st.Append(evs)
		tr.stop(sp)
		return err
	}
	// The saturated rounds are traced and counted; the paced batches
	// between them only keep the engine's state the daemon's.
	lp.stages = map[string]float64{}
	var det int64
	for k, c := range cycles {
		for _, b := range c.paced {
			if err := apply(b, nil, false); err != nil {
				return nil, err
			}
		}
		wal0, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		stages0 := stageSums([]*obs.Registry{reg})
		det0 := eng.Stats().Detections
		t0 := time.Now()
		for _, b := range c.saturated {
			if err := apply(b, tr, true); err != nil {
				return nil, err
			}
		}
		if k == len(cycles)-1 {
			lp.retained = eng.Stats().EventsRetained
		}
		a0 := heapAllocs()
		sp := tr.start("stream.ingest")
		eng.Flush()
		tr.stop(sp)
		lp.allocs += heapAllocs() - a0
		lp.wall += time.Since(t0)
		det += eng.Stats().Detections - det0
		for name, v := range stageSums([]*obs.Registry{reg}) {
			lp.stages[name] += v - stages0[name]
		}
		wal1, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		lp.walBytes += wal1 - wal0
	}
	lp.detections = det

	var qs []float64
	for i := 0; i < minQueryRounds; i++ {
		q0 := time.Now()
		var lists [][]*stream.Detection
		for _, s := range subs {
			lists = append(lists, topk.Top(s.ID))
		}
		top := cluster.MergeTopK(lists, queryK)
		page := recent.Recent("", queryPage)
		qs = append(qs, float64(time.Since(q0).Microseconds()))
		if len(top) == 0 || len(page) == 0 {
			return nil, fmt.Errorf("in-process query answered nothing")
		}
	}
	lp.queryUS = median(qs)
	return lp, nil
}

// stageSums reads the engine's finalize stage and round histograms.
func stageSums(regs []*obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		for _, stage := range []string{"snapshot", "match", "fanout", "emit"} {
			s, _ := histSum(reg, "flowmotif_finalize_stage_seconds", obs.L("stage", stage))
			out[stage] += s
		}
		_, n := histSum(reg, "flowmotif_finalize_round_seconds")
		out["rounds"] += float64(n)
	}
	return out
}

// setEngineLayers reports the engine's stage sums over the saturated
// rounds and its planner counters.
func setEngineLayers(r *run, stages map[string]float64, stats []stream.Stats) {
	for _, stage := range []string{"snapshot", "match", "fanout", "emit"} {
		r.set("stream."+stage+"_s", stages[stage])
	}
	r.set("stream.rounds", stages["rounds"])
	var det, shared, builds int64
	var reuse float64
	for _, st := range stats {
		det += st.Detections
		shared += st.MatchesShared
		builds += st.SnapshotBuilds
		reuse += st.SnapshotReuse * float64(st.SnapshotBuilds)
	}
	r.set("stream.detections", float64(det))
	r.set("stream.matches_shared", float64(shared))
	if builds > 0 {
		r.set("stream.snapshot_reuse", reuse/float64(builds))
	}
}
