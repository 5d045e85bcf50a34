package main

import (
	"errors"
	"fmt"
	"time"

	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// Both streaming workloads measure in cycles spread over the whole run, so
// a slow spell of the machine touches a few samples of every metric rather
// than every sample of one: each cycle sends its paced batches, then its
// saturated round, then runs query rounds until its share of the run's
// time is spent.
const (
	streamCycles   = 8
	streamGap      = 4096 // time between cycles, more than any δ
	pacedBatch     = 256
	pacedPerCycle  = 38 // paced batches per cycle
	minQueryRounds = 200
	queryK         = 100
	queryPage      = 500
)

var errNotVisible = errors.New("watermark never covered the batch")

// cycle is one cycle's share of the stream.
type cycle struct {
	events           []temporal.Event // all of it, paced then saturated
	paced, saturated [][]temporal.Event
}

// makeCycles cuts evs into streamCycles cycles: pacedPerCycle paced batches
// of pacedBatch events, then the cycle's share of the rest in batches of
// satBatch. Every cycle after the first is shifted a further streamGap
// later, in place, so the /flush that ends a cycle forecloses no window of
// the next and references computed over evs see the same stream.
func makeCycles(evs []temporal.Event, satBatch int) []cycle {
	per := len(evs) / streamCycles
	out := make([]cycle, streamCycles)
	for k := range out {
		part := evs[k*per : (k+1)*per]
		if k == streamCycles-1 {
			part = evs[k*per:]
		}
		for i := range part {
			part[i].T += int64(k) * streamGap
		}
		split := pacedPerCycle * pacedBatch
		out[k] = cycle{events: part, paced: batches(part[:split], pacedBatch), saturated: batches(part[split:], satBatch)}
	}
	return out
}

// segments cuts a stream of prefix followed by cycles into the pieces the
// gaps between cycles separate: the prefix with the first cycle, then each
// later cycle.
func segments(prefix []temporal.Event, cycles []cycle) [][]temporal.Event {
	out := [][]temporal.Event{append(append([]temporal.Event(nil), prefix...), cycles[0].events...)}
	for _, c := range cycles[1:] {
		out = append(out, c.events)
	}
	return out
}

// streamEvents is the stream length for a prefix and cycles whose
// saturated rounds hold satPerCycle events each.
func streamEvents(prefix, satPerCycle int) int {
	return prefix + streamCycles*(pacedPerCycle*pacedBatch+satPerCycle)
}

// phases is what the cycles measured.
type phases struct {
	acks     []float64     // ms per paced batch until the front door acked
	visible  []float64     // ms per paced batch until a query saw it
	queries  []float64     // ms per query round
	satWall  time.Duration // all saturated rounds
	satEvs   int
	rates    []float64 // events per second, per saturated round
	walls    []float64 // seconds per saturated round
	flushes  []float64 // ms per round-ending /flush
	lastTop  []*stream.Detection
	lastPage []*stream.Detection
}

func (ph *phases) report(r *run, setup, rss float64) {
	r.set("setup_s", setup)
	r.set("events_per_s", median(ph.rates))
	r.set("search_s", median(ph.walls))
	r.set("visible_p50_ms", median(ph.visible))
	r.set("query_p50_ms", median(ph.queries))
	r.set("peak_rss_mb", rss)
	r.info["ack_ms"] = tail(ph.acks)
	r.info["visible_ms"] = tail(ph.visible)
	r.info["query_ms"] = tail(ph.queries)
	r.info["saturated_rounds_s"] = ph.walls
	r.info["flush_ms"] = ph.flushes
	r.info["answer_events"] = map[string]int{"top": detectionEvents(ph.lastTop), "page": detectionEvents(ph.lastPage)}
}

// phaseHooks run around each saturated round (traced runs read the
// program's counters there).
type phaseHooks struct {
	beforeRound func()
	beforeFlush func(last bool)
	afterRound  func()
}

// streamPhases drives the cycles against the HTTP front door at base,
// sending batches with ingest (given each batch's index in send order):
//   - paced: one batch outstanding; a batch is visible once a query
//     reports a watermark at or past its last event;
//   - saturated: the round sent as fast as acks return, ended by
//     POST /flush;
//   - query: rounds of one merged top-k across all subscriptions and one
//     page of recent instances.
func streamPhases(r *run, base string, cycles []cycle, ingest func(int, []temporal.Event) error, hooks phaseHooks) (*phases, error) {
	ph := &phases{}
	begin := time.Now()
	next := 0
	send := func(b []temporal.Event) error {
		err := ingest(next, b)
		next++
		r.op("batch", err)
		return err
	}
	for k, c := range cycles {
		for _, b := range c.paced {
			last := b[len(b)-1].T
			t0 := time.Now()
			if err := send(b); err != nil {
				return nil, err
			}
			ph.acks = append(ph.acks, ms(time.Since(t0)))
			visible := false
			for polls := 0; polls < 100000; polls++ {
				var ans queryAnswer
				err := getJSON(base+"/instances?limit=1", &ans)
				r.op("poll", err)
				if err != nil {
					return nil, err
				}
				if ans.Started && ans.Watermark >= last {
					visible = true
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			if !visible {
				return nil, errNotVisible
			}
			ph.visible = append(ph.visible, ms(time.Since(t0)))
		}

		if hooks.beforeRound != nil {
			hooks.beforeRound()
		}
		t0 := time.Now()
		n := 0
		for _, b := range c.saturated {
			if err := send(b); err != nil {
				return nil, err
			}
			n += len(b)
		}
		if hooks.beforeFlush != nil {
			hooks.beforeFlush(k == len(cycles)-1)
		}
		f0 := time.Now()
		err := postJSON(base+"/flush", struct{}{}, nil)
		r.op("flush", err)
		if err != nil {
			return nil, err
		}
		ph.flushes = append(ph.flushes, ms(time.Since(f0)))
		wall := time.Since(t0)
		if hooks.afterRound != nil {
			hooks.afterRound()
		}
		ph.satWall += wall
		ph.satEvs += n
		ph.rates = append(ph.rates, float64(n)/wall.Seconds())
		ph.walls = append(ph.walls, wall.Seconds())

		end := begin.Add(r.seconds * time.Duration(k+1) / time.Duration(len(cycles)))
		for i := 0; i < minQueryRounds/len(cycles) || time.Now().Before(end); i++ {
			q0 := time.Now()
			var top, page queryAnswer
			err := getJSON(fmt.Sprintf("%s/topk?all=1&k=%d", base, queryK), &top)
			r.op("query", err)
			if err != nil {
				return nil, err
			}
			err = getJSON(fmt.Sprintf("%s/instances?limit=%d", base, queryPage), &page)
			r.op("query", err)
			if err != nil {
				return nil, err
			}
			ph.queries = append(ph.queries, ms(time.Since(q0)))
			ph.lastTop, ph.lastPage = top.Instances, page.Instances
		}
	}
	return ph, nil
}
