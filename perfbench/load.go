package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is how many requests the load generator keeps in flight: one per
// core of the 2-core machine the benchmark was sized on, so the generator
// never needs more connections than the box has cores.
const clients = 2

// batchSize is the number of queries in one /batch request.
const batchSize = 128

// sample is one batch offered by the open-loop generator.
type sample struct {
	Batch int
	Due   time.Time // when the schedule said to send it
	Sent  time.Time // when a client started sending it
	Done  time.Time // when the full response was read
	ReqID int64     // ties the client span to handler spans (trace runs)
	Resp  *scanned  // digest of an HTTP response, checked after the phase
	Sum   uint64    // answer digest of an in-process batch
	Err   error
}

// latency is measured from the due time, so a stall also charges the wait
// it imposes on the requests queued behind it.
func (s *sample) latency() time.Duration { return s.Done.Sub(s.Due) }

type sender func(ctx context.Context, s *sample) error

// openLoop offers batches first, first+1, … on a fixed schedule of rate
// batches per second for dur, whatever the system's response times: the
// generator hands each batch to the first free client at its due time and
// blocks while every client is busy, so a backlog shows up as send lag and
// as latency.
func openLoop(ctx context.Context, rate float64, dur time.Duration, first int, send sender) (out []*sample) {
	jobs := make(chan *sample)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				s.Sent = time.Now()
				s.Err = send(ctx, s)
				if s.Done.IsZero() {
					s.Done = time.Now()
				}
			}
		}()
	}
	start := time.Now()
	for i := 0; ; i++ {
		off := time.Duration(float64(i) / rate * float64(time.Second))
		if off >= dur || ctx.Err() != nil {
			break
		}
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := &sample{Batch: first + i, Due: due}
		out = append(out, s)
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	return out
}

// latencies returns per-batch latency in ms. A failed batch counts as
// missing any limit, so it enters as +Inf.
func latencies(ss []*sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency())
		if s.Err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// genLag is the mean delay from due time to send time in ms.
func genLag(ss []*sample) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = ms(s.Sent.Sub(s.Due))
	}
	return mean(v)
}

// saturate keeps every client busy, each sending its next batch as soon as
// the last one returns (a closed loop), for dur. The completion rate is the
// highest rate the system sustains with no growing backlog; the samples'
// latency runs from send to response.
func saturate(ctx context.Context, dur time.Duration, first int, send sender) (rate float64, out []*sample) {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]*sample, clients)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				s := &sample{Batch: int(next.Add(1) - 1)}
				s.Due, s.Sent = time.Now(), time.Now()
				s.Err = send(ctx, s)
				if s.Done.IsZero() {
					s.Done = time.Now()
				}
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	end := start
	for _, ss := range per {
		for _, s := range ss {
			if s.Done.After(end) {
				end = s.Done
			}
		}
		out = append(out, ss...)
	}
	return float64(len(out)) / end.Sub(start).Seconds(), out
}

// reqHeader carries the client span's ID to the handler wrapper.
const reqHeader = "X-Perfbench-Span"

// active holds the tracer while a traced phase runs; handler wrappers and
// clients read it on every request, so a trace run can measure one phase
// untraced and the next traced inside one process.
type active struct{ p atomic.Pointer[tracer] }

func (a *active) get() *tracer { return a.p.Load() }

// wrap records a span named name around every request h serves while a
// tracer is active, parented to the client span named in reqHeader (0 when
// absent: a coordinator's sub-request, attached later by containment).
func (a *active) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := a.get()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t.record(span{ID: t.newID(), Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	})
}

// httpLoad posts pre-generated /batch bodies over at most `clients`
// keep-alive connections.
// Each response is digested as it arrives (see scan.go) and checked after
// the phase; its latency ends when its last byte was read, before the
// digest.
type httpLoad struct {
	client *http.Client
	url    string
	bodies [][]byte
	tr     *active
}

func newHTTPLoad(url string, bodies [][]byte, tr *active) *httpLoad {
	return &httpLoad{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		url:    url + "/batch",
		bodies: bodies,
		tr:     tr,
	}
}

// readBufs recycles response buffers, so the client's own garbage does not
// add to the collector's work in the process under test.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (h *httpLoad) send(ctx context.Context, s *sample) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(h.bodies[s.Batch%len(h.bodies)]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if t := h.tr.get(); t != nil {
		s.ReqID = t.newID()
		req.Header.Set(reqHeader, strconv.FormatInt(s.ReqID, 10))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	s.Done = time.Now()
	if s.Resp, err = scanBatch(buf.Bytes()); err != nil {
		return fmt.Errorf("malformed response: %v", err)
	}
	return nil
}

func (h *httpLoad) close() { h.client.CloseIdleConnections() }

// warmUp sends batches first..first+n-1 back to back before timing.
func warmUp(ctx context.Context, first, n int, send sender) error {
	for i := 0; i < n; i++ {
		s := &sample{Batch: first + i}
		if err := send(ctx, s); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", first+i, err)
		}
	}
	return nil
}

// listener serves a handler on a loopback port until stop.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &listener{url: "http://" + l.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(l) }()
	return ls, nil
}

// stop shuts the server down and waits for Serve to return.
func (ls *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// requestSpans turns a traced phase's samples into client-side spans: a
// root "request" span from due time to response, with a "bench.gen_lag"
// child from due time to send time. Handler spans recorded by wrap hang
// under the root through reqHeader.
func requestSpans(t *tracer, ss []*sample) {
	for _, s := range ss {
		if s.ReqID == 0 {
			continue
		}
		t.record(span{ID: s.ReqID, Name: "request", Start: t.at(s.Due), End: t.at(s.Done)})
		t.record(span{ID: t.newID(), Parent: s.ReqID, Name: "bench.gen_lag", Start: t.at(s.Due), End: t.at(s.Sent)})
	}
}

// measured holds the samples of one run's load phases.
type measured struct {
	fixed     []*sample // untraced run: the fixed-rate phase
	saturated []*sample // untraced run: the closed loop for max_qps
	plain     []*sample // traced run: the untraced windows
	traced    []*sample // traced run: the traced windows
}

func (m *measured) all() []*sample {
	return append(append(append(append([]*sample(nil), m.fixed...), m.saturated...), m.plain...), m.traced...)
}

// load is one workload's offered load: the fixed rate in batches/s, the
// p99 limit the saturated loop is held against, and the share of the budget
// the fixed rate gets — enough for at least 1000 batches, so that at least
// ten lie beyond the printed p99.
type load struct {
	rate  float64
	limit time.Duration
	share float64
}

// satWindows is how many saturated windows an untraced run samples
// max_qps in. Each follows a fixed-rate window, so the samples spread over
// the whole run, and max_qps is their median: a burst of outside load on
// the shared machine, or the drift of a system whose state grows during the
// run (delta chains in churn), moves only some of them.
const satWindows = 8

// measure runs the load phases over budget, offering batches from first
// on. Untraced, fixed-rate windows (latency percentiles, ld.share of the
// budget) alternate with saturated closed-loop windows (max_qps, the
// rest), and between, if not nil, runs after each saturated window, while
// no batch is in flight. Traced, the fixed rate runs in windows without
// and with spans: the untraced ones give the runtime counters, the traced
// ones the spans, and the two together the tracing overhead.
func measure(ctx context.Context, e *env, o *outcome, act *active, tr *tracer, ld load, budget time.Duration, first int, send sender, between func()) *measured {
	m := &measured{}
	next := first
	runtime.GC()
	if !e.trace {
		fixedW := time.Duration(float64(budget) * ld.share / satWindows)
		satW := budget/satWindows - fixedW
		var rates []float64
		for i := 0; i < satWindows; i++ {
			fixed := openLoop(ctx, ld.rate, fixedW, next, send)
			next += len(fixed)
			rate, sat := saturate(ctx, satW, next, send)
			next += len(sat)
			m.fixed, m.saturated = append(m.fixed, fixed...), append(m.saturated, sat...)
			rates = append(rates, rate)
			if between != nil {
				between()
			}
		}
		rate := median(rates)
		o.e2e["max_qps"] = rate * batchSize
		setLatency(o, e, m.fixed)
		p99 := rankQuantile(latencies(m.saturated), 0.99)
		verdict := "meets"
		if p99 > ms(ld.limit) {
			verdict = "EXCEEDS"
		}
		sort.Float64s(rates)
		fmt.Fprintf(e.out, "saturated: median %.1f batches/s (%.0f q/s) of %d windows (%.1f to %.1f) over %d batches, p99 %.4fms %s the %v limit\n",
			rate, rate*batchSize, satWindows, rates[0], rates[len(rates)-1], len(m.saturated), p99, verdict, ld.limit)
		return m
	}
	// Untraced and traced windows alternate, so both see the same state
	// of a system that drifts during the run (delta chains grow in churn).
	const windows = 5
	w := budget / (2 * windows)
	var mem memDelta
	for i := 0; i < windows; i++ {
		before := readMem()
		plain := openLoop(ctx, ld.rate, w, next, send)
		after := readMem()
		mem.alloc, mem.gc = mem.alloc+after.alloc-before.alloc, mem.gc+after.gc-before.gc
		next += len(plain)
		act.p.Store(tr)
		traced := openLoop(ctx, ld.rate, w, next, send)
		act.p.Store(nil)
		next += len(traced)
		m.plain, m.traced = append(m.plain, plain...), append(m.traced, traced...)
	}
	o.layer["runtime.alloc_bytes_per_query"] = ratio(float64(mem.alloc), float64(len(m.plain)*batchSize))
	o.layer["runtime.gc_cycles"] = float64(mem.gc)
	requestSpans(tr, m.traced)
	p50 := func(ss []*sample) float64 { return rankQuantile(latencies(ss), 0.5) }
	o.layer["bench.gen_lag_ms"] = genLag(m.traced)
	o.layer["bench.latency_samples"] = float64(len(m.traced))
	o.layer["bench.trace_overhead"] = ratio(p50(m.traced), p50(m.plain))
	fmt.Fprintf(e.out, "tracing overhead: p50 %.4fms traced / %.4fms untraced = %.4f (%d / %d batches)\n",
		p50(m.traced), p50(m.plain), o.layer["bench.trace_overhead"], len(m.traced), len(m.plain))
	return m
}

// setLatency records the fixed-rate median latency and prints it with the
// p90 and p99, all exact nearest-rank values of raw samples, and the number
// of samples beyond each tail.
func setLatency(o *outcome, e *env, fixed []*sample) {
	lat := latencies(fixed)
	o.e2e["latency_p50_ms"] = rankQuantile(lat, 0.5)
	fmt.Fprintf(e.out, "latency: %d batches, p50 %.4fms, p90 %.4fms (%d beyond, not gated), p99 %.4fms (%d beyond, not gated); gen lag %.4fms\n",
		len(lat), o.e2e["latency_p50_ms"], rankQuantile(lat, 0.9), beyond(len(lat), 0.9), rankQuantile(lat, 0.99), beyond(len(lat), 0.99), genLag(fixed))
}

// spanMean is the mean duration in ms of the spans named name.
func spanMean(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.dur())/1e6)
		}
	}
	return mean(v)
}

// netMS is the mean of client round trip minus the handler span that
// served it, over requests whose handler span was tied by reqHeader.
func netMS(spans []span, ss []*sample, handler string) float64 {
	h := map[int64]int64{}
	for _, s := range spans {
		if s.Name == handler && s.Parent != 0 {
			h[s.Parent] = s.dur()
		}
	}
	var v []float64
	for _, s := range ss {
		if d, ok := h[s.ReqID]; ok {
			v = append(v, float64(int64(s.Done.Sub(s.Sent))-d)/1e6)
		}
	}
	return mean(v)
}
