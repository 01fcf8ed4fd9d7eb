// Package server exposes loaded Pestrie indexes as a concurrent query
// service over HTTP/JSON — the pay-once persistence story of the paper
// taken to its conclusion: one process decodes a .pes file and any number
// of downstream clients query it without re-running the pointer analysis.
//
// Endpoints:
//
//	POST /query        one Table-1 query  {"backend","op","p","q","o"}
//	POST /batch        many queries       {"backend","queries":[...]}, answered by a worker pool
//	GET  /backends     catalogued indexes and their dimensions
//	GET  /generations  version tag of every loaded backend
//	GET  /debug/stats  per-backend/per-op counters and latency histograms
//	GET  /debug/store  store lifecycle state (budget, evictions, generations)
//	GET  /healthz      liveness probe
//
// Every backend resolves through one internal/store catalog: the store
// passed in Options.Store, or a private one. Indexes registered with
// AddIndex are pinned entries of that catalog (resident, never evicted);
// files are catalogued by path and decode lazily on first query into a
// memory-budgeted LRU. Each request pins its generation for its whole
// duration, so eviction and hot-swap never free or tear an index
// mid-query.
//
// A Coordinator (coord.go) fronts a tier of such servers. Both answer
// through the same HTTP surface (http.go): the /query, /batch and
// /healthz handlers, the deadline, the body and batch limits, and the
// listener lifecycle exist once.
//
// Answers are produced by calling the underlying index directly and
// appending its return value, as JSON, verbatim: a server response is
// byte-identical to what encoding/json writes for the same answers, but
// /batch and /query replies are written by the package's own append codec
// (codec.go) rather than by encoding/json, which would re-validate every
// pre-rendered ID list. The Index is immutable after Load, which is what
// makes the whole service a pile of lock-free concurrent readers (pinned
// by the package's -race tests).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/perf"
	"pestrie/internal/store"
)

// Ops in canonical order, matching the cmd/pestrie query -op names.
var Ops = []string{"isalias", "aliases", "pointsto", "pointedby"}

// Options configure a Server.
type Options struct {
	// RequestTimeout bounds the handling of a single request, batches
	// included. Zero selects 10s.
	RequestTimeout time.Duration

	// BatchWorkers is the worker-pool size answering each batch request.
	// Zero selects GOMAXPROCS.
	BatchWorkers int

	// MaxBatch caps the queries accepted in one batch request; request
	// bodies are capped in proportion. Zero selects 65536.
	MaxBatch int

	// Store is the catalog every backend resolves through: lazy decode on
	// first query, LRU eviction under a memory budget, checksum hot-swap,
	// plus the pinned indexes registered with AddIndex. Nil selects a
	// private store with no budget.
	Store *store.Store

	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default). Profile collection runs outside the request timeout.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.BatchWorkers <= 0 {
		o.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1 << 16
	}
	if o.Store == nil {
		o.Store = store.New(store.Options{})
	}
	return o
}

// Server answers pointer queries over the backends of one store.
type Server struct {
	*surface
	opts  Options
	start time.Time

	mu    sync.RWMutex // guards stats registration; reads on hot path
	stats map[string]*backend
}

// backend holds one backend's counters, fixed at creation so the hot path
// is atomics only: one entry per op in Ops, and the batches.
type backend struct {
	ops   map[string]*opStats
	batch opStats
}

type opStats struct {
	count    atomic.Int64
	errors   atomic.Int64
	canceled atomic.Int64 // batch queries returned unanswered (timeout truncation)
	lat      perf.Histogram
}

// New returns a Server over opts.Store; register in-memory indexes with
// AddIndex.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts.withDefaults(),
		start: time.Now(),
		stats: make(map[string]*backend),
	}
	s.surface = newSurface(s, s.routes, s.opts.RequestTimeout, s.opts.MaxBatch)
	return s
}

// AddIndex registers a loaded index under name as a pinned entry of the
// server's store. An empty name, or one already registered other than by
// a directory scan (which the pinned index then shadows), is an error.
func (s *Server) AddIndex(name string, ix *core.Index) error { return s.opts.Store.AddIndex(name, ix) }

// statsFor returns the counters for name, creating them on first touch.
func (s *Server) statsFor(name string) *backend {
	s.mu.RLock()
	b, ok := s.stats[name]
	s.mu.RUnlock()
	if ok {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.stats[name]; ok {
		return b
	}
	b = &backend{ops: make(map[string]*opStats, len(Ops))}
	for _, op := range Ops {
		b.ops[op] = &opStats{}
	}
	s.stats[name] = b
	return b
}

// resolve pins the generation a request's backend name currently serves.
// The empty name is allowed when exactly one backend is catalogued. The
// caller must Release the handle when the request is done.
func (s *Server) resolve(ctx context.Context, name string) (*store.Handle, *backend, error) {
	if name == "" {
		names := s.opts.Store.Names()
		if len(names) != 1 {
			return nil, nil, fmt.Errorf("server: %d backends loaded, %w", len(names), errUnnamed)
		}
		name = names[0]
	}
	h, err := s.opts.Store.Acquire(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	return h, s.statsFor(name), nil
}

// answer resolves backend and answers queries against the pinned
// generation: a single query inline, a batch with the worker pool.
func (s *Server) answer(ctx context.Context, backend string, queries []Query, single bool) (BatchResponse, error) {
	h, b, err := s.resolve(ctx, backend)
	if err != nil {
		return BatchResponse{}, err
	}
	defer h.Release()
	if single {
		return BatchResponse{Results: []Result{b.exec(h.Index(), queries[0])}}, nil
	}
	start := time.Now()
	results, unanswered := s.runBatch(ctx, b, h.Index(), queries)
	st := &b.batch
	st.count.Add(1)
	st.lat.Observe(time.Since(start))
	if unanswered > 0 {
		// A truncated batch still returns what it computed: the answered
		// prefix is valid work, and the tail is explicitly marked. The
		// canceled counter is the monitoring signal that deadlines are
		// eating batches.
		st.canceled.Add(int64(unanswered))
	}
	return BatchResponse{Results: results, Generation: h.VersionTag(), Unanswered: unanswered}, nil
}

// Query is one Table-1 query. ID fields are pointers so "absent" and "0"
// stay distinguishable during validation.
type Query struct {
	Op string `json:"op"`
	P  *int   `json:"p,omitempty"`
	Q  *int   `json:"q,omitempty"`
	O  *int   `json:"o,omitempty"`
}

// Result is the answer to one Query. For list ops, IDs holds the JSON
// encoding of the exact []int the Index returned — the byte-identical
// contract. Err is set instead when the query is malformed.
type Result struct {
	Alias *bool           `json:"alias,omitempty"`
	IDs   json.RawMessage `json:"ids,omitempty"`
	Err   string          `json:"error,omitempty"`
}

// exec answers one query against the generation a request pinned — a
// plain decoded base, or a delta-chain snapshot whose answers are frozen
// at that generation's stamp — recording stats on b. The op's histogram
// times validation and the index call, not the encoding of the answer.
func (b *backend) exec(ix delta.Index, q Query) Result {
	// Start the clock before validation: error responses cost real time
	// too, and a histogram that only sees successes reports flattering
	// latencies the moment clients start sending malformed queries.
	start := time.Now()
	st, ok := b.ops[q.Op]
	if !ok {
		return Result{Err: fmt.Sprintf("unknown op %q", q.Op)}
	}
	need := func(name string, v *int, n int) (int, error) {
		if v == nil {
			return 0, fmt.Errorf("%s needs %q", q.Op, name)
		}
		if *v < 0 || *v >= n {
			return 0, fmt.Errorf("%s %d out of range [0,%d)", name, *v, n)
		}
		return *v, nil
	}
	var res Result
	var ids []int
	var err error
	switch q.Op {
	case "isalias":
		var p, qq int
		if p, err = need("p", q.P, ix.Pointers()); err == nil {
			if qq, err = need("q", q.Q, ix.Pointers()); err == nil {
				alias := ix.IsAlias(p, qq)
				res.Alias = &alias
			}
		}
	case "aliases":
		var p int
		if p, err = need("p", q.P, ix.Pointers()); err == nil {
			ids = ix.ListAliases(p)
		}
	case "pointsto":
		var p int
		if p, err = need("p", q.P, ix.Pointers()); err == nil {
			ids = ix.ListPointsTo(p)
		}
	case "pointedby":
		var o int
		if o, err = need("o", q.O, ix.Objects()); err == nil {
			ids = ix.ListPointedBy(o)
		}
	}
	st.lat.Observe(time.Since(start))
	if err != nil {
		st.errors.Add(1)
		return Result{Err: err.Error()}
	}
	st.count.Add(1)
	if res.Alias == nil {
		// No ID has more digits than the larger ID space's size, so the
		// list fits without regrowing (null and brackets need 4 bytes).
		width := 2 // one digit and a comma
		for n := max(ix.Pointers(), ix.Objects()); n >= 10; n /= 10 {
			width++
		}
		res.IDs = appendIDs(make([]byte, 0, 4+width*len(ids)), ids)
	}
	return res
}

// runBatch answers queries with the worker pool, preserving order. It
// stops feeding new queries when ctx is done; every query left unanswered
// gets an explicit per-result error — a zero-value Result would read as a
// legitimate empty answer, silently truncating the batch — and the count
// of those is returned so callers can surface and meter the truncation.
func (s *Server) runBatch(ctx context.Context, b *backend, ix delta.Index, queries []Query) ([]Result, int) {
	results := make([]Result, len(queries))
	workers := s.opts.BatchWorkers
	if workers > len(queries) {
		workers = len(queries)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = b.exec(ix, queries[i])
			}
		}()
	}
	unanswered := 0
feed:
	for i := range queries {
		select {
		case next <- i:
		case <-ctx.Done():
			// Queries i.. were never handed to a worker; the marked tail
			// is disjoint from the indices workers write, so no race.
			msg := fmt.Sprintf("server: unanswered, batch canceled after %d/%d queries: %v",
				i, len(queries), ctx.Err())
			for j := i; j < len(queries); j++ {
				results[j] = Result{Err: msg}
			}
			unanswered = len(queries) - i
			break feed
		}
	}
	close(next)
	wg.Wait()
	return results, unanswered
}

// routes mounts the Server's own endpoints next to the shared surface.
func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]BackendInfo{"backends": s.Backends()})
	})
	mux.HandleFunc("GET /generations", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, GenerationsResponse{Generations: s.Generations()})
	})
	mux.HandleFunc("GET /debug/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	// /debug/store exposes the store's lifecycle state — per-entry
	// loaded/evicted status, generations, byte footprints,
	// hit/miss/load/evict counters, and load-latency histograms.
	mux.HandleFunc("GET /debug/store", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.opts.Store.Snapshot())
	})
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// BackendInfo describes one catalogued index. File-backed backends report
// Loaded=false (with zero or last-known dimensions) until their first
// query decodes them; static (AddIndex) indexes are always loaded.
type BackendInfo struct {
	Name       string `json:"name"`
	Source     string `json:"source"` // "static" or "store"
	Loaded     bool   `json:"loaded"`
	Pointers   int    `json:"pointers"`
	Objects    int    `json:"objects"`
	Groups     int    `json:"groups"`
	Rectangles int    `json:"rectangles"`
}

// Backends lists the catalogued indexes sorted by name, described from the
// store's snapshot without forcing any to load (that would defeat the
// budget).
func (s *Server) Backends() []BackendInfo {
	snap := s.opts.Store.Snapshot()
	out := make([]BackendInfo, 0, len(snap.Backends))
	for _, e := range snap.Backends {
		src := "store"
		if e.Static {
			src = "static"
		}
		out = append(out, BackendInfo{
			Name:       e.Name,
			Source:     src,
			Loaded:     e.Loaded,
			Pointers:   e.Pointers,
			Objects:    e.Objects,
			Groups:     e.Groups,
			Rectangles: e.Rectangles,
		})
	}
	return out
}

// GenerationsResponse is the GET /generations payload: the version tag of
// every backend that can answer without loading anything. A coordinator
// polls this to revalidate its cache watermarks without paying a query.
type GenerationsResponse struct {
	Generations map[string]string `json:"generations"`
}

// Generations reports the version tag of every loaded backend. Unloaded
// entries are omitted rather than loaded: minting a tag must never cost a
// decode.
func (s *Server) Generations() map[string]string { return s.opts.Store.VersionTags() }

// OpStats is the monitoring snapshot for one (backend, op) pair.
type OpStats struct {
	Count    int64                  `json:"count"`
	Errors   int64                  `json:"errors"`
	Canceled int64                  `json:"canceled,omitempty"`
	Latency  perf.HistogramSnapshot `json:"latency"`
}

func (st *opStats) snapshot() OpStats {
	return OpStats{
		Count:    st.count.Load(),
		Errors:   st.errors.Load(),
		Canceled: st.canceled.Load(),
		Latency:  st.lat.Snapshot(),
	}
}

// Stats is the /debug/stats payload. Each backend lists its ops and
// "batch", the whole-batch counters.
type Stats struct {
	UptimeMS int64                         `json:"uptime_ms"`
	Backends map[string]map[string]OpStats `json:"backends"`
}

// Stats snapshots every counter and histogram.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Stats{
		UptimeMS: time.Since(s.start).Milliseconds(),
		Backends: make(map[string]map[string]OpStats, len(s.stats)),
	}
	for name, b := range s.stats {
		ops := make(map[string]OpStats, len(b.ops)+1)
		for op, st := range b.ops {
			ops[op] = st.snapshot()
		}
		ops["batch"] = b.batch.snapshot()
		out.Backends[name] = ops
	}
	return out
}
