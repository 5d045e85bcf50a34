// Command perfbench is flowmotif's end-to-end benchmark. One invocation runs
// one workload on inputs generated from --seed, drives the program only
// through the public entry points of its modules, checks every output
// against independent computations, and prints one JSON result as the last
// line of standard output:
//
//	perfbench --workload batch-catalog --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// the benchmark's own spans off; with --trace 1 it carries the per-layer
// metrics of a traced run of the same workload. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of flowmotif sees; every untraced run
// reports all of them (README.md says what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_s", "s"},
	{"events_per_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not touch
// reads 0 there.
var perLayer = []metricDef{
	{"dataset.parse_s", "s"},
	{"temporal.build_s", "s"},
	{"match.p1_s", "s"},
	{"match.matches", "count"},
	{"core.enumerate_s", "s"},
	{"core.topk_s", "s"},
	{"core.dp_s", "s"},
	{"core.instances", "count"},
	{"core.windows", "count"},
	{"core.useful_ratio", "ratio"},
	{"store.replay_s", "s"},
	{"stream.recover_s", "s"},
	{"wire.encode_ns_per_event", "ns"},
	{"wire.decode_ns_per_event", "ns"},
	{"store.append_ns_per_event", "ns"},
	{"store.bytes_per_event", "B"},
	{"stream.ingest_ns_per_event", "ns"},
	{"stream.snapshot_s", "s"},
	{"stream.match_s", "s"},
	{"stream.fanout_s", "s"},
	{"stream.emit_s", "s"},
	{"stream.rounds", "count"},
	{"stream.detections", "count"},
	{"stream.snapshot_reuse", "ratio"},
	{"stream.matches_shared", "count"},
	{"stream.allocs_per_detection", "count"},
	{"stream.retained_events", "count"},
	{"server.query_us", "us"},
	{"server.unattributed_ns_per_event", "ns"},
	{"server.front_door_ms", "ms"},
	{"cluster.queue_wait_ms", "ms"},
	{"cluster.deliver_ms", "ms"},
	{"cluster.coalesce_events", "count"},
	{"cluster.deliveries", "count"},
	{"wire.apply_ms", "ms"},
	{"cluster.member_busy_skew", "ratio"},
	{"cluster.gather_ms", "ms"},
	{"cluster.history_events", "count"},
	{"bench.layer_coverage", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"batch-catalog":   runBatchCatalog,
	"serve-shared":    runServeShared,
	"cluster-catalog": runClusterCatalog,
}

// opCount is the attempted/failed accounting of one operation kind.
type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // scratch directory inside the checkout

	ops      map[string]*opCount
	metrics  map[string]float64
	info     map[string]any
	failures []string
}

// op records one attempted operation of the given kind; a non-nil err
// counts it as failed.
func (r *run) op(kind string, err error) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		r.note(kind+" failed: %v", err)
	}
}

// check records a failed output check unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note keeps the first few messages of a kind for the report line.
func (r *run) note(format string, args ...any) {
	notes, _ := r.info["notes"].([]string)
	if len(notes) < 20 {
		r.info["notes"] = append(notes, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func main() {
	workload := flag.String("workload", "", "workload name: batch-catalog, serve-shared or cluster-catalog")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      dir,
		ops:      map[string]*opCount{},
		metrics:  map[string]float64{},
		info:     map[string]any{},
	}
	err = fn(r)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if code := r.report(os.Stdout); code != 0 {
		os.Exit(code)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the detail line (fingerprint, per-kind accounting, notes)
// and then the result line. It returns the exit code: 1 when a check
// failed or a metric is missing.
func (r *run) report(w *os.File) int {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !r.traced {
			r.check(false, "metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var attempted, failed int64
	for _, c := range r.ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	r.check(attempted > 0, "no operation attempted")
	detail := map[string]any{
		"workload":    r.workload,
		"seed":        r.seed,
		"traced":      r.traced,
		"fingerprint": fingerprint(),
		"operations":  r.ops,
		"info":        r.info,
		"failures":    r.failures,
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	_ = enc.Encode(detail)
	_ = enc.Encode(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write result: %v\n", err)
		return 1
	}
	if len(r.failures) > 0 {
		for _, f := range r.failures {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// fingerprint identifies the machine and toolchain a result came from.
func fingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        model,
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// settle collects the garbage the benchmark's own preparation left and
// hands it back to the OS, outside every timed phase, so that it neither
// slows the measured phases nor counts in their resident set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rssSampler records the largest resident set the process reaches while
// it runs, sampling VmRSS every few milliseconds.
type rssSampler struct {
	quit chan struct{}
	done chan struct{}
	peak float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				s.peak = max(s.peak, mb)
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	return s.peak
}

// residentMB reads the process's resident set (VmRSS).
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmRSS not found in /proc/self/status")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail reports the highest of p90/p99/p99.9 that leaves at least ten
// samples beyond it, with the sample count; fewer than 40 samples give no
// tail (the median alone is reported).
func tail(xs []float64) map[string]any {
	out := map[string]any{"samples": len(xs), "p50": median(xs)}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if len(xs) >= 40 && float64(len(xs))*(1-p.q) >= 10 {
			out[p.name] = quantile(xs, p.q)
			break
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func scratchPath(r *run, name string) string { return filepath.Join(r.dir, name) }
