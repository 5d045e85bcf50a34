package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/server"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// Daemon defaults (cmd/flowmotifd): workers 1, recent 4096, topk 50, no
// fsync, queue depth 128, coalesce 2048, unlimited history.
const (
	daemonRecent = 4096
	daemonTopK   = 50
)

// httpDaemon serves one server.Server's handler on a loopback listener, as
// flowmotifd does, with its wire listener armed.
type httpDaemon struct {
	srv      *server.Server
	hs       *http.Server
	url      string
	wireAddr string
	served   chan struct{}
}

func startDaemon(cfg server.Config) (*httpDaemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	d, err := serveHTTP(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.srv = srv
	if d.wireAddr, err = srv.StartWire("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// serveHTTP serves h on a fresh loopback port.
func serveHTTP(h http.Handler) (*httpDaemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &httpDaemon{
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln)
	}()
	return d, nil
}

// stop closes the listeners and waits for the serving goroutines, leaving
// the server's store open and unsnapshotted: what a crash leaves behind.
func (d *httpDaemon) stop() {
	d.hs.Close()
	<-d.served
	if d.srv != nil {
		d.srv.StopWire()
	}
}

// close is a clean shutdown.
func (d *httpDaemon) close() error {
	d.stop()
	if d.srv != nil {
		return d.srv.Close()
	}
	return nil
}

// client is the benchmark's one HTTP client (keep-alive, one connection).
var client = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
}

// getJSON fetches url and decodes the JSON answer into v.
func getJSON(url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeResponse(resp, v)
}

// postJSON posts body as JSON and decodes the answer into v (v may be nil).
func postJSON(url string, body any, v any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	return decodeResponse(resp, v)
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if v == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// queryAnswer is the shape of /instances and /topk answers.
type queryAnswer struct {
	Count     int                 `json:"count"`
	Watermark int64               `json:"watermark"`
	Started   bool                `json:"started"`
	Degraded  bool                `json:"degraded"`
	Instances []*stream.Detection `json:"instances"`
}

// denseStream generates a dense facebook-like stream of exactly n events
// over nodes users, sorted by time, at about rate events per time unit, so
// a δ-window holds about rate·δ events. Its community structure keeps the
// work per event steady from seed to seed, unlike the hub-dominated
// bitcoin-like generator at this density.
func denseStream(seed int64, nodes, n int, rate float64) ([]temporal.Event, error) {
	rounds := n / 7
	for {
		evs, err := gen.Facebook(gen.FacebookConfig{
			Nodes:    nodes,
			Bursts:   rounds,
			Cascades: rounds,
			Duration: int64(float64(n) / rate),
			Seed:     seed,
		})
		if err != nil {
			return nil, err
		}
		if len(evs) >= n {
			sortByTime(evs)
			return evs[:n], nil
		}
		rounds += rounds / 4
	}
}

// sortByTime sorts stably, the order the JSON handler and the wire encoder
// give equal timestamps.
func sortByTime(evs []temporal.Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
}

// batches cuts evs into consecutive batches of at most n events.
func batches(evs []temporal.Event, n int) [][]temporal.Event {
	var out [][]temporal.Event
	for len(evs) > 0 {
		k := min(n, len(evs))
		out = append(out, evs[:k])
		evs = evs[k:]
	}
	return out
}

// codec carries batches through the wire protocol in-process: encoded as a
// client does, decoded as the daemon's listener does.
type codec struct {
	enc   wire.Encoder
	frame bytes.Reader
	dec   *wire.Decoder
}

func newCodec() *codec {
	c := &codec{}
	c.dec = wire.NewDecoder(&c.frame)
	return c
}

// roundTrip encodes b and decodes it back, with a span around each half.
// The result is valid until the next call.
func (c *codec) roundTrip(tr *tracer, b []temporal.Event) ([]temporal.Event, error) {
	sp := tr.start("wire.encode")
	frame, err := c.enc.EncodeBatch(0, "", b)
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	c.frame.Reset(frame)
	sp = tr.start("wire.decode")
	defer tr.stop(sp)
	if _, err := c.dec.Next(); err != nil {
		return nil, err
	}
	return c.dec.Events()
}

// copyDir copies a flat directory tree (a store's data dir).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// heapAllocs reads the runtime's cumulative heap allocation count without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// motifByName looks a catalog motif up.
func motifByName(name string) *motif.Motif {
	m, ok := motif.CatalogByName(name)
	if !ok {
		panic("perfbench: unknown catalog motif " + name)
	}
	return m
}
