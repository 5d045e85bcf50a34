package main

import (
	"sort"
	"time"

	"flowmotif"
	"flowmotif/internal/core"
	"flowmotif/internal/dataset"
	"flowmotif/internal/gen"
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// batch-catalog: the paper's §6 experiment on a bitcoin-like network. The
// network is written to CSV outside every timed phase; set-up loads it with
// dataset and builds the temporal.Graph; each round answers FindInstances,
// TopK and TopOneFlow for the ten catalog motifs serially (Workers=1, the
// paper's single-threaded algorithm). The network joins batchRegions
// independently seeded regions over disjoint users: the generator's hubs
// make one region's search cost swing from seed to seed, and the union
// averages that out.
const (
	batchRegions  = 6
	batchNodes    = 1500 // per region
	batchSeedTxns = 4500 // per region
	batchDuration = 27 * 24 * 3600
	batchDelta    = 600 // the paper's bitcoin defaults (harness.Bitcoin)
	batchPhi      = 5
	batchTopK     = 50
	batchSetups   = 9    // set-up repetitions of a traced run
	bruteEvents   = 4000 // prefix the brute-force enumerator must agree on
	tracedRounds  = 2    // traced catalog rounds, each after an untraced one
)

// catalogAnswer is one motif's answer in one round.
type catalogAnswer struct {
	found []*core.Instance
	top   []*core.Instance
	flow  float64 // TopOneFlow
	stats core.EnumStats
}

func runBatchCatalog(r *run) error {
	evs, err := bitcoinRegions(r.seed)
	if err != nil {
		return err
	}
	csvPath := scratchPath(r, "bitcoin.csv")
	if err := dataset.WriteCSVFile(csvPath, evs, nil); err != nil {
		return err
	}
	r.info["events"] = len(evs)
	catalog := motif.Catalog()

	settle()
	rss := sampleRSS()
	// Set-up: load the CSV and build the graph, timed per call.
	var setups []float64
	load := func(tr *tracer) (*temporal.Graph, error) {
		t0 := time.Now()
		sp := tr.start("dataset.parse")
		loaded, _, err := dataset.ReadCSVFile(csvPath, dataset.CSVOptions{NumericIDs: true})
		tr.stop(sp)
		r.op("load", err)
		if err != nil {
			return nil, err
		}
		sp = tr.start("temporal.build")
		g, err := temporal.NewGraph(loaded)
		tr.stop(sp)
		r.op("load", err)
		if err != nil {
			return nil, err
		}
		r.check(sameEvents(loaded, evs), "CSV round trip changed the events")
		r.check(g.NumEvents() == len(evs), "graph holds %d events, %d generated", g.NumEvents(), len(evs))
		setups = append(setups, time.Since(t0).Seconds())
		return g, nil
	}

	if r.traced {
		tr := newTracer()
		var g *temporal.Graph
		for i := 0; i < batchSetups; i++ {
			if g, err = load(tr); err != nil {
				return err
			}
		}
		rss.stop()
		return traceBatchCatalog(r, tr, g, evs, catalog)
	}

	// Whole rounds, each a set-up and the catalog, until the run's time is
	// spent (at least three, so the median is a median).
	var rounds, calls, perMotif []float64
	var first []catalogAnswer
	var g *temporal.Graph
	begin := time.Now()
	for len(rounds) < 3 || time.Since(begin) < r.seconds {
		if g, err = load(nil); err != nil {
			return err
		}
		t0 := time.Now()
		answers := make([]catalogAnswer, len(catalog))
		for i, mo := range catalog {
			m0 := time.Now()
			var a catalogAnswer
			c0 := time.Now()
			a.found, err = flowmotif.FindInstances(g, mo, flowmotif.Params{Delta: batchDelta, Phi: batchPhi, Workers: 1})
			calls = append(calls, ms(time.Since(c0)))
			r.op("search", err)
			c0 = time.Now()
			a.top, err = flowmotif.TopK(g, mo, batchDelta, batchTopK)
			calls = append(calls, ms(time.Since(c0)))
			r.op("search", err)
			c0 = time.Now()
			a.flow, err = flowmotif.TopOneFlow(g, mo, batchDelta)
			calls = append(calls, ms(time.Since(c0)))
			r.op("search", err)
			perMotif = append(perMotif, ms(time.Since(m0)))
			answers[i] = a
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		if first == nil {
			first = answers
		} else {
			for i, a := range answers {
				r.check(sameAnswer(g, a, first[i]), "%s: round %d answered differently from round 1", catalog[i].Name(), len(rounds))
			}
		}
	}
	search := median(rounds)
	r.set("setup_s", median(setups))
	r.info["setup_s"] = setups
	r.set("search_s", search)
	r.set("events_per_s", float64(g.NumEvents())/search)
	r.set("visible_p50_ms", median(perMotif))
	r.set("query_p50_ms", median(calls))
	r.set("peak_rss_mb", rss.stop())
	r.info["rounds"] = len(rounds)
	r.info["search_call_ms"] = tail(calls)
	r.info["motif_answer_ms"] = tail(perMotif)

	checkCatalog(r, g, evs, catalog, first)
	return nil
}

// traceBatchCatalog is the traced run: catalog rounds with a span around
// every call, alternated with untraced rounds for the overhead, and the
// standalone phase-P1 pass.
func traceBatchCatalog(r *run, tr *tracer, g *temporal.Graph, evs []temporal.Event, catalog []*motif.Motif) error {
	round := func(tr *tracer) ([]catalogAnswer, time.Duration, error) {
		answers := make([]catalogAnswer, len(catalog))
		t0 := time.Now()
		for i, mo := range catalog {
			a := &answers[i]
			sp := tr.start("core.enumerate")
			st, err := flowmotif.EnumerateInstances(g, mo, flowmotif.Params{Delta: batchDelta, Phi: batchPhi, Workers: 1}, func(in *core.Instance) bool {
				a.found = append(a.found, in)
				return true
			})
			tr.stop(sp)
			r.op("search", err)
			if err != nil {
				return nil, 0, err
			}
			a.stats = st
			sp = tr.start("core.topk")
			a.top, _, err = core.TopK(g, mo, batchDelta, batchTopK, 1)
			tr.stop(sp)
			r.op("search", err)
			if err != nil {
				return nil, 0, err
			}
			sp = tr.start("core.dp")
			a.flow, _, err = core.TopOneDPFast(g, mo, batchDelta)
			tr.stop(sp)
			r.op("search", err)
			if err != nil {
				return nil, 0, err
			}
		}
		return answers, time.Since(t0), nil
	}
	// Alternate untraced and traced rounds so warm-up falls on neither side.
	var traced, plain []catalogAnswer
	var tracedWall, plainWall time.Duration
	for i := 0; i < tracedRounds; i++ {
		p, w, err := round(nil)
		if err != nil {
			return err
		}
		plain, plainWall = p, plainWall+w
		t, w, err := round(tr)
		if err != nil {
			return err
		}
		traced, tracedWall = t, tracedWall+w
	}
	var matches int64
	sp := tr.start("match.count")
	for _, mo := range catalog {
		matches += match.Count(g, mo)
	}
	tr.stop(sp)

	self := tr.self()
	var instances, windows int64
	for i, a := range traced {
		instances += int64(len(a.found))
		windows += a.stats.WindowsProcessed
		r.check(sameAnswer(g, a, plain[i]), "%s: traced and untraced rounds differ", catalog[i].Name())
	}
	r.set("dataset.parse_s", median(tr.durations("dataset.parse")))
	r.set("temporal.build_s", median(tr.durations("temporal.build")))
	r.set("match.p1_s", self["match.count"].Seconds())
	r.set("match.matches", float64(matches))
	r.set("core.enumerate_s", self["core.enumerate"].Seconds()/tracedRounds)
	r.set("core.topk_s", self["core.topk"].Seconds()/tracedRounds)
	r.set("core.dp_s", self["core.dp"].Seconds()/tracedRounds)
	r.set("core.instances", float64(instances))
	r.set("core.windows", float64(windows))
	if matches > 0 {
		r.set("core.useful_ratio", float64(instances)/float64(matches))
	}
	layers := self["core.enumerate"] + self["core.topk"] + self["core.dp"]
	coverage := layers.Seconds() / tracedWall.Seconds()
	r.set("bench.layer_coverage", coverage)
	r.check(coverage >= 1-reconcileTolerance && coverage <= 1, "layer self-times cover %.3f of the traced wall clock", coverage)
	r.set("bench.trace_overhead", tracedWall.Seconds()/plainWall.Seconds()-1)
	checkCatalog(r, g, evs, catalog, traced)
	return nil
}

// bitcoinRegions generates the batch network: batchRegions bitcoin-like
// regions, region k seeded with seed*batchRegions+k and its users shifted
// past the previous regions'.
func bitcoinRegions(seed int64) ([]temporal.Event, error) {
	var evs []temporal.Event
	for k := 0; k < batchRegions; k++ {
		part, err := gen.Bitcoin(gen.BitcoinConfig{Nodes: batchNodes, SeedTxns: batchSeedTxns, Duration: batchDuration, Seed: seed*batchRegions + int64(k)})
		if err != nil {
			return nil, err
		}
		off := temporal.NodeID(k * batchNodes)
		for _, e := range part {
			e.From += off
			e.To += off
			evs = append(evs, e)
		}
	}
	return evs, nil
}

// checkCatalog checks one round's answers against the benchmark's own
// validator and the properties the method must have, and the batch search
// against the brute-force enumerator on a prefix.
func checkCatalog(r *run, g *temporal.Graph, evs []temporal.Event, catalog []*motif.Motif, answers []catalogAnswer) {
	ix := newRefIndex(evs)
	total := 0
	for i, mo := range catalog {
		a := answers[i]
		name := mo.Name()
		found := make([]inst, len(a.found))
		for j, in := range a.found {
			found[j] = fromInstance(g, in)
			if err := validate(ix, mo, batchDelta, batchPhi, found[j]); err != nil {
				r.check(false, "%s: FindInstances instance %d: %v", name, j, err)
				break
			}
		}
		r.check(sameInstanceSets(found, found) == nil, "%s: FindInstances reported an instance twice", name)
		total += len(found)
		n, err := flowmotif.CountInstances(g, mo, flowmotif.Params{Delta: batchDelta, Phi: batchPhi, Workers: 1})
		r.check(err == nil && n == int64(len(found)), "%s: CountInstances %d, FindInstances %d (%v)", name, n, len(found), err)

		top := make([]inst, len(a.top))
		for j, in := range a.top {
			top[j] = fromInstance(g, in)
			if err := validate(ix, mo, batchDelta, 0, top[j]); err != nil {
				r.check(false, "%s: TopK entry %d: %v", name, j, err)
				break
			}
		}
		r.check(sameInstanceSets(top, top) == nil, "%s: TopK reported an instance twice", name)
		ff, tf := sortedFlows(found), sortedFlows(top)
		r.check(len(tf) <= batchTopK, "%s: TopK returned %d > k", name, len(tf))
		for j, f := range tf {
			if j < len(ff) {
				r.check(flowEq(f, ff[j]), "%s: TopK entry %d flow %.9g, FindInstances' %d-th best %.9g", name, j, f, j, ff[j])
			} else {
				r.check(f < batchPhi, "%s: TopK entry %d flow %.9g >= phi but FindInstances has only %d", name, j, f, len(ff))
			}
		}
		if len(tf) > 0 {
			r.check(flowEq(a.flow, tf[0]), "%s: TopOneFlow %.9g, TopK(1) flow %.9g", name, a.flow, tf[0])
		} else {
			r.check(a.flow == 0, "%s: TopOneFlow %.9g with no instance", name, a.flow)
		}
		if len(ff) > 0 {
			r.check(flowEq(a.flow, ff[0]), "%s: TopOneFlow %.9g, best FindInstances flow %.9g", name, a.flow, ff[0])
		}
	}
	r.info["instances"] = total

	// Brute force on the stream's first events.
	prefix := append([]temporal.Event(nil), evs...)
	sort.SliceStable(prefix, func(i, j int) bool { return prefix[i].T < prefix[j].T })
	prefix = prefix[:min(bruteEvents, len(prefix))]
	pg, err := temporal.NewGraph(prefix)
	if err != nil {
		r.check(false, "prefix graph: %v", err)
		return
	}
	pix := newRefIndex(prefix)
	bruteTotal := 0
	for _, mo := range catalog {
		got, err := flowmotif.FindInstances(pg, mo, flowmotif.Params{Delta: batchDelta, Phi: batchPhi, Workers: 1})
		if err != nil {
			r.check(false, "%s: prefix FindInstances: %v", mo.Name(), err)
			continue
		}
		gi := make([]inst, len(got))
		for j, in := range got {
			gi[j] = fromInstance(pg, in)
		}
		want := bruteForce(pix, mo, batchDelta, batchPhi)
		bruteTotal += len(want)
		if err := sameInstanceSets(gi, want); err != nil {
			r.check(false, "%s: FindInstances differs from the brute force on a %d-event prefix: %v", mo.Name(), len(prefix), err)
		}
	}
	r.info["brute_force_instances"] = bruteTotal
	r.check(bruteTotal > 0, "brute-force prefix holds no instance; the check would be vacuous")
}

// sameAnswer compares two answers to one motif by instance keys and flows.
func sameAnswer(g *temporal.Graph, a, b catalogAnswer) bool {
	if len(a.found) != len(b.found) || len(a.top) != len(b.top) || a.flow != b.flow {
		return false
	}
	for i := range a.found {
		if fromInstance(g, a.found[i]).key() != fromInstance(g, b.found[i]).key() {
			return false
		}
	}
	for i := range a.top {
		if a.top[i].Flow != b.top[i].Flow {
			return false
		}
	}
	return true
}

func sameEvents(a, b []temporal.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
