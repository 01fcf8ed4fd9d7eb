// Coordinator mode: the horizontal tier in front of shard processes.
//
// A Coordinator owns no indexes. It partitions the pointer-ID space across
// N shard servers (each a plain internal/server process serving the same
// catalog), fans each /batch out shard-wise over persistent HTTP
// connections, and merges the sub-results back in request order. Answers
// pass through verbatim — a healthy coordinator reply is byte-identical to
// what one process serving the whole ID space would return, which is the
// CI-gated contract.
//
// In front of the fan-out sit three deduplication levels, after the MDE
// observation (PAPERS.md) that real pointer-query streams are massively
// repetitive:
//
//  1. intra-batch collapse — duplicate queries inside one batch are sent
//     once and the answer fanned back to every position;
//  2. singleflight — a query identical to one already in flight (from any
//     request) parks on that flight instead of re-asking a shard;
//  3. answer cache — a bounded LRU keyed on (backend, generation, op,
//     args), where generation is the shard-reported version tag, so a
//     hot-swap or delta-chain Refresh orphans stale entries by
//     construction instead of requiring explicit invalidation.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pestrie/internal/flight"
	"pestrie/internal/perf"
)

// ShardError reports one shard a coordinator batch could not get answers
// from; the affected results carry per-result errors as well.
type ShardError struct {
	Shard   int    `json:"shard"`
	URL     string `json:"url"`
	Queries int    `json:"queries"`
	Err     string `json:"error"`
}

// CoordOptions configure a Coordinator.
type CoordOptions struct {
	// Shards is the ordered list of shard base URLs. Order matters: the
	// hash partition assigns each (backend, pointer-ID) slot to an index
	// in this list, so all coordinators fronting the same tier must agree
	// on it.
	Shards []string

	// RequestTimeout bounds one coordinator request end to end. Zero
	// selects 30s.
	RequestTimeout time.Duration

	// ShardTimeout bounds each shard sub-request, so one stuck shard
	// degrades its slice of the batch instead of the whole reply. Zero
	// selects 10s.
	ShardTimeout time.Duration

	// CacheBytes budgets the answer cache. Zero selects 64MiB; negative
	// disables caching (singleflight still dedups).
	CacheBytes int64

	// MaxBatch caps the queries accepted in one batch request; request
	// bodies are capped in proportion. Zero selects 65536.
	MaxBatch int

	// GenTTL is how stale a backend's generation watermark may get before
	// a fully-cached stream triggers an async /generations revalidation
	// probe. The watermark also refreshes for free on every cache miss
	// that reaches a shard, so the probe only matters at hit ratios near
	// 1. Zero selects 2s; negative disables probing.
	GenTTL time.Duration
}

func (o CoordOptions) withDefaults() CoordOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 10 * time.Second
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1 << 16
	}
	if o.GenTTL == 0 {
		o.GenTTL = 2 * time.Second
	}
	return o
}

// shardState is one shard's connection target plus its counters.
type shardState struct {
	url      string
	requests atomic.Int64
	errors   atomic.Int64
	queries  atomic.Int64 // queries actually sent (after all dedup levels)
	lat      perf.Histogram
}

// genWatermark tracks the last version tag seen for one backend and when
// it was last confirmed against a shard.
type genWatermark struct {
	tag       string
	confirmed time.Time
	probing   bool
}

// Coordinator fans pointer queries out over a shard tier.
type Coordinator struct {
	*surface
	opts   CoordOptions
	client *http.Client
	cache  *answerCache
	flight flight.Group[shardAnswer]
	shards []*shardState
	start  time.Time

	genMu sync.Mutex
	gens  map[string]*genWatermark

	batchDedup atomic.Int64 // queries collapsed onto an in-batch duplicate
	// flightWaits counts queries answered by joining another request's
	// flight — the second deduplication level.
	flightWaits atomic.Int64
}

// shardAnswer is the outcome of one flight: a shard's answer to a query
// and the version tag it was computed at ("" on failure).
type shardAnswer struct {
	res Result
	gen string
}

// NewCoordinator returns a Coordinator fronting the given shard tier.
func NewCoordinator(opts CoordOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("server: coordinator needs at least one shard URL")
	}
	c := &Coordinator{
		opts: opts,
		client: &http.Client{
			// Persistent connections to every shard: the fan-out must not
			// pay a TCP handshake per sub-batch.
			Transport: &http.Transport{
				MaxIdleConns:        4 * len(opts.Shards) * 8,
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		cache: newAnswerCache(opts.CacheBytes),
		start: time.Now(),
		gens:  make(map[string]*genWatermark),
	}
	c.surface = newSurface(c, c.routes, opts.RequestTimeout, opts.MaxBatch)
	for _, u := range opts.Shards {
		c.shards = append(c.shards, &shardState{url: strings.TrimSuffix(u, "/")})
	}
	return c, nil
}

// shardOf maps one query to its shard: a hash partition of the pointer-ID
// space (object-ID space for pointedby, kept in its own hash domain) per
// backend. Deterministic, so identical queries always land on the same
// shard and each shard's hot working set is a stable slice of the space.
func (c *Coordinator) shardOf(backend string, q Query) int {
	h := fnv.New32a()
	io.WriteString(h, backend)
	var key [5]byte
	key[0] = 'p'
	id := 0
	if q.Op == "pointedby" {
		key[0] = 'o'
		if q.O != nil {
			id = *q.O
		}
	} else if q.P != nil {
		id = *q.P
	}
	binary.LittleEndian.PutUint32(key[1:], uint32(id))
	h.Write(key[:])
	return int(h.Sum32() % uint32(len(c.shards)))
}

// generationTag returns the current cache watermark for backend ("" when
// unknown) and kicks off an async revalidation probe when it has gone
// stale — the guard against a 100%-hit stream never noticing a hot-swap.
func (c *Coordinator) generationTag(backend string) string {
	c.genMu.Lock()
	w := c.gens[backend]
	if w == nil {
		c.genMu.Unlock()
		return ""
	}
	tag := w.tag
	probe := c.opts.GenTTL > 0 && !w.probing && time.Since(w.confirmed) > c.opts.GenTTL
	if probe {
		w.probing = true
	}
	c.genMu.Unlock()
	if probe {
		go c.probeGeneration(backend)
	}
	return tag
}

// observeGeneration records the tag a shard answered with. Last writer
// wins: tags are content identities, not ordered stamps, so during a
// rolling swap the watermark flaps between old and new — which only
// splits the cache keyspace until the tier converges, never serves a
// wrong answer (entries are only written under the tag their answer
// actually came from).
func (c *Coordinator) observeGeneration(backend, tag string) {
	if tag == "" {
		return
	}
	c.genMu.Lock()
	w := c.gens[backend]
	if w == nil {
		w = &genWatermark{}
		c.gens[backend] = w
	}
	w.tag = tag
	w.confirmed = time.Now()
	c.genMu.Unlock()
}

// probeGeneration asks the backend's home shard for its current tags.
func (c *Coordinator) probeGeneration(backend string) {
	defer func() {
		c.genMu.Lock()
		if w := c.gens[backend]; w != nil {
			w.probing = false
		}
		c.genMu.Unlock()
	}()
	sh := c.shards[c.shardOf(backend, Query{})]
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ShardTimeout)
	defer cancel()
	gr, err := fetchJSON[GenerationsResponse](ctx, c.client, sh.url+"/generations", nil, false)
	if err != nil {
		return
	}
	if tag, ok := gr.Generations[backend]; ok {
		c.observeGeneration(backend, tag)
	}
}

// pending is one unique (post-cache) query of a batch: the positions it
// fills and the flight answering it.
type pending struct {
	q       Query
	key     string
	indices []int
	f       *flight.Call[shardAnswer]
	owner   bool
}

// answer answers queries for backend, in order. The response carries the
// version tag the results correspond to ("" when sources disagree, e.g.
// mid-swap) and the shards that failed. Shard failures never fail the
// whole request, so the error is always nil.
func (c *Coordinator) answer(ctx context.Context, backend string, queries []Query, _ bool) (BatchResponse, error) {
	gen := c.generationTag(backend)
	results := make([]Result, len(queries))

	// Level 3 (cache) and level 1 (intra-batch collapse).
	var order []*pending
	byKey := make(map[string]*pending)
	agreed, conflict := "", false
	observe := func(tag string) {
		if tag == "" {
			conflict = true
		} else if agreed == "" {
			agreed = tag
		} else if agreed != tag {
			conflict = true
		}
	}
	for i, q := range queries {
		key := queryKey(backend, gen, q)
		if gen != "" {
			if res, ok := c.cache.get(key); ok {
				results[i] = res
				observe(gen)
				continue
			}
		}
		p := byKey[key]
		if p == nil {
			p = &pending{q: q, key: key}
			byKey[key] = p
			order = append(order, p)
		} else {
			c.batchDedup.Add(1)
		}
		p.indices = append(p.indices, i)
	}

	// Level 2 (singleflight), then partition the owned misses shard-wise.
	buckets := make([][]*pending, len(c.shards))
	for _, p := range order {
		p.f, p.owner = c.flight.Begin(p.key)
		if p.owner {
			si := c.shardOf(backend, p.q)
			buckets[si] = append(buckets[si], p)
		} else {
			c.flightWaits.Add(int64(len(p.indices)))
		}
	}

	// Fan out, one sub-batch per shard with work, each under its own
	// deadline so a stuck shard fails only its slice.
	var partialMu sync.Mutex
	var partial []ShardError
	var wg sync.WaitGroup
	for si, ps := range buckets {
		if len(ps) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, ps []*pending) {
			defer wg.Done()
			sh := c.shards[si]
			qs := make([]Query, len(ps))
			for j, p := range ps {
				qs[j] = p.q
			}
			sctx, cancel := context.WithTimeout(ctx, c.opts.ShardTimeout)
			defer cancel()
			sh.requests.Add(1)
			sh.queries.Add(int64(len(qs)))
			body, err := json.Marshal(batchRequest{Backend: backend, Queries: qs})
			var resp *BatchResponse
			if err == nil {
				t0 := time.Now()
				resp, err = send(sctx, c.client, sh.url+"/batch", body)
				sh.lat.Observe(time.Since(t0))
			}
			if err == nil && len(resp.Results) != len(qs) {
				err = fmt.Errorf("shard returned %d results for %d queries", len(resp.Results), len(qs))
			}
			if err != nil {
				sh.errors.Add(1)
				res := Result{Err: fmt.Sprintf("shard %d (%s): %v", si, sh.url, err)}
				for _, p := range ps {
					c.flight.Finish(p.key, p.f, shardAnswer{res: res})
				}
				partialMu.Lock()
				partial = append(partial, ShardError{Shard: si, URL: sh.url, Queries: len(qs), Err: err.Error()})
				partialMu.Unlock()
				return
			}
			c.observeGeneration(backend, resp.Generation)
			for j, p := range ps {
				r := resp.Results[j]
				c.flight.Finish(p.key, p.f, shardAnswer{res: r, gen: resp.Generation})
				if r.Err == "" && resp.Generation != "" {
					// Cache under the tag the answer actually came from —
					// which is the watermark key future lookups compute
					// once observeGeneration above lands.
					c.cache.put(queryKey(backend, resp.Generation, p.q), r)
				}
			}
		}(si, ps)
	}
	wg.Wait()

	// Merge: owned flights resolved above; waiter flights belong to other
	// in-progress requests, bounded by our own deadline.
	for _, p := range order {
		a, err := p.f.Wait(ctx)
		if err != nil {
			a.res = Result{Err: fmt.Sprintf("server: waiting on in-flight duplicate: %v", err)}
		}
		observe(a.gen)
		for _, i := range p.indices {
			results[i] = a.res
		}
	}
	if conflict {
		agreed = ""
	}
	return BatchResponse{Results: results, Generation: agreed, Partial: partial}, nil
}

// routes mounts the coordinator's own endpoints next to the shared
// surface: the proxied catalog listing and /debug/coord.
func (c *Coordinator) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /backends", c.handleBackends)
	mux.HandleFunc("GET /debug/coord", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
}

// handleBackends proxies the catalog listing from the first healthy shard
// — every shard serves the same catalog, the coordinator holds none.
func (c *Coordinator) handleBackends(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, sh := range c.shards {
		bs, err := fetchJSON[map[string][]BackendInfo](r.Context(), c.client, sh.url+"/backends", nil, false)
		if err == nil {
			writeJSON(w, http.StatusOK, bs)
			return
		}
		lastErr = err
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("server: no shard reachable: %v", lastErr))
}

// ShardStats is one shard's section of /debug/coord.
type ShardStats struct {
	URL      string                 `json:"url"`
	Requests int64                  `json:"requests"`
	Errors   int64                  `json:"errors"`
	Queries  int64                  `json:"queries"`
	Latency  perf.HistogramSnapshot `json:"latency"`
}

// CoordStats is the /debug/coord payload.
type CoordStats struct {
	UptimeMS int64        `json:"uptime_ms"`
	Shards   []ShardStats `json:"shards"`
	Cache    CacheStats   `json:"cache"`
	// Deduplicated counts queries answered without a shard round-trip
	// beyond the cache: intra-batch collapses plus singleflight joins.
	BatchDedup        int64             `json:"batch_dedup"`
	SingleflightWaits int64             `json:"singleflight_waits"`
	Generations       map[string]string `json:"generations,omitempty"`
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() CoordStats {
	out := CoordStats{
		UptimeMS:          time.Since(c.start).Milliseconds(),
		Cache:             c.cache.stats(),
		BatchDedup:        c.batchDedup.Load(),
		SingleflightWaits: c.flightWaits.Load(),
	}
	for _, sh := range c.shards {
		out.Shards = append(out.Shards, ShardStats{
			URL:      sh.url,
			Requests: sh.requests.Load(),
			Errors:   sh.errors.Load(),
			Queries:  sh.queries.Load(),
			Latency:  sh.lat.Snapshot(),
		})
	}
	c.genMu.Lock()
	if len(c.gens) > 0 {
		out.Generations = make(map[string]string, len(c.gens))
		for name, w := range c.gens {
			out.Generations[name] = w.tag
		}
	}
	c.genMu.Unlock()
	return out
}
