package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/matrix"
	"pestrie/internal/server"
	"pestrie/internal/store"
	"pestrie/internal/synth"
)

// The churn workload is a server.Coordinator over two in-process shards,
// each with its own store.Store over three tenants' seeded samba@0.01 PES1
// bases. Reads are an open-loop zipfian stream (s = 1.2) addressed
// round-robin to the tenants; beside them a writer appends one 64-edit
// delta segment to one tenant's chain every 500 ms, tenants in turn, and
// then refreshes every shard's store. The answer cache, singleflight, shard
// fan-out, delta apply and snapshot overlays do the work, and because reads
// run beside writes, a read-side gain that costs freshness shows too.
const (
	churnPreset  = "samba"
	churnScale   = 0.01
	churnTenants = 3
	churnShards  = 2
	churnZipf    = 1.2
	churnEvery   = 500 * time.Millisecond
	churnEdits   = 64
	// churnRate (batches/s) is about half the highest rate that met
	// churnLimit at the commit that introduced the benchmark, on a 2-core
	// machine.
	churnRate  = 40.0
	churnLimit = 100 * time.Millisecond
	// churnStale bounds how long a coordinator may keep answering from a
	// generation after a newer one was written: its generation watermark
	// revalidates every CoordOptions.GenTTL (2s by default) plus one write
	// period of slack.
	churnStale = 2*time.Second + churnEvery
	// churnWarm batches load every tenant on every shard before timing.
	churnWarm = 48
	churnReps = 3
)

var churnLoad = load{rate: churnRate, limit: churnLimit, share: 0.85}

// tenant is one backend: its base, its pre-generated edit segments and the
// reference chain the benchmark checks answers against.
type tenant struct {
	name string
	pm   *matrix.PointsTo
	b    *built
	hash string      // hex of the base file's SHA-256 prefix, as in version tags
	base *core.Index // PES1-decoded base, owned by ver
	segs []*delta.Segment

	mu      sync.Mutex
	ver     *delta.Versioned
	written []time.Time // written[s-1]: when the segment with stamp s was on disk
}

type churnRig struct {
	tenants []*tenant
	stores  []*store.Store
	shards  []*server.Server
	lss     []*listener // shard listeners, then the coordinator's
	coord   *server.Coordinator
	load    *httpLoad
	queries [][]server.Query // pooled body i is addressed to tenant i % churnTenants
	// Per repetition, summed over the bases: pay-once time (s) and PES1
	// decode (ms).
	persist, load1 []float64
}

func (r *churnRig) stop() {
	if r.load != nil {
		r.load.close()
	}
	for i := len(r.lss) - 1; i >= 0; i-- {
		r.lss[i].stop()
	}
}

func churnSetup(ctx context.Context, e *env, act *active, k, pool int) (*churnRig, error) {
	r := &churnRig{}
	scale := churnScale
	if e.toy {
		scale = 0.002
	}
	writes := int(e.dur/churnEvery)/churnTenants + 2
	for i := 0; i < churnTenants; i++ {
		t := &tenant{name: fmt.Sprintf("t%d", i)}
		// The bases are the preset at fixed per-tenant seeds; the workload
		// seed drives the read and edit streams.
		cfg := synth.PresetByName(churnPreset).Config(scale)
		cfg.Seed += int64(i)
		t.pm = synth.Generate(cfg)
		var err error
		if t.b, err = buildAndWrite(nil, 0, t.pm, filepath.Join(e.dir, fmt.Sprintf("churn-%d-%s", k, t.name)), false); err != nil {
			return r, err
		}
		img, err := os.ReadFile(t.b.pes1)
		if err != nil {
			return r, err
		}
		sum := sha256.Sum256(img)
		t.hash = hex.EncodeToString(sum[:8])
		if t.base, err = loadPES1(t.b.pes1); err != nil {
			return r, err
		}
		if t.ver, err = delta.NewVersioned(t.base); err != nil {
			return r, err
		}
		es := synth.NewEditStream(t.pm, synth.EditConfig{Seed: splitmix(e.seed, 20+i), EditsPerStep: churnEdits, BaseHint: delta.HintOf(sum)})
		for j := 0; j < writes; j++ {
			t.segs = append(t.segs, es.Next())
		}
		r.tenants = append(r.tenants, t)
	}
	// The pay-once steps take milliseconds here, so each set-up repeats
	// them on scratch copies and the run reports medians.
	for rep := 0; rep < churnReps; rep++ {
		var persist, load1 time.Duration
		for i, t := range r.tenants {
			b := t.b
			if rep > 0 {
				var err error
				if b, err = buildAndWrite(nil, 0, t.pm, filepath.Join(e.dir, fmt.Sprintf("churn-%d-rep%d-%d", k, rep, i)), false); err != nil {
					return r, err
				}
			}
			persist += b.persistTime()
			start := time.Now()
			if _, err := loadPES1(b.pes1); err != nil {
				return r, err
			}
			load1 += time.Since(start)
		}
		r.persist = append(r.persist, persist.Seconds())
		r.load1 = append(r.load1, ms(load1))
	}
	var opts []server.BenchOptions
	for _, t := range r.tenants {
		opts = append(opts, server.BenchOptions{Base: synth.BasePointers(t.pm, 10), NumObjects: t.pm.NumObjects, BatchSize: batchSize, Mix: server.DefaultMix, ZipfS: churnZipf})
	}
	bodies := make([][]byte, pool)
	r.queries = make([][]server.Query, pool)
	for i := range r.queries {
		ti := i % churnTenants
		r.queries[i] = server.GenQueries(rand.New(rand.NewSource(server.BatchSeed(splitmix(e.seed, 1), i))), &opts[ti])
		var err error
		if bodies[i], err = server.MarshalBatchRequest(r.tenants[ti].name, r.queries[i]); err != nil {
			return r, err
		}
	}

	var urls []string
	for s := 0; s < churnShards; s++ {
		st := store.New(store.Options{})
		for _, t := range r.tenants {
			if err := st.Add(t.name, t.b.pes1); err != nil {
				return r, err
			}
		}
		srv := server.New(server.Options{Store: st})
		h := srv.Handler()
		if e.trace {
			h = act.wrap("server.handler", h)
		}
		ls, err := listen(h)
		if err != nil {
			return r, err
		}
		r.stores = append(r.stores, st)
		r.shards = append(r.shards, srv)
		r.lss = append(r.lss, ls)
		urls = append(urls, ls.url)
	}
	var err error
	if r.coord, err = server.NewCoordinator(server.CoordOptions{Shards: urls}); err != nil {
		return r, err
	}
	h := r.coord.Handler()
	if e.trace {
		h = act.wrap("server.coord.handler", h)
	}
	ls, err := listen(h)
	if err != nil {
		return r, err
	}
	r.lss = append(r.lss, ls)
	r.load = newHTTPLoad(ls.url, bodies, act)
	return r, warmUp(ctx, 0, churnWarm, r.load.send)
}

// write is one segment the writer appended.
type write struct {
	tenant  int
	stamp   uint64
	written time.Time
	write   time.Duration   // delta.WriteSegmentFile
	refresh []time.Duration // Store.Refresh, per shard
	err     error
}

// runWriter appends a segment every churnEvery, tenants in turn, until ctx
// ends, then returns what it wrote.
func (r *churnRig) runWriter(ctx context.Context, act *active) <-chan []write {
	out := make(chan []write, 1)
	go func() {
		var ws []write
		tick := time.NewTicker(churnEvery)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-ctx.Done():
				out <- ws
				return
			case <-tick.C:
			}
			ti := n % churnTenants
			t := r.tenants[ti]
			if n/churnTenants >= len(t.segs) {
				continue
			}
			seg := t.segs[n/churnTenants]
			tr := act.get()
			w := write{tenant: ti, stamp: seg.Gen}
			_, w.write = tr.timed("delta.write_segment", 0, func() { w.err = delta.WriteSegmentFile(delta.SegmentPath(t.b.pes1, seg.Gen), seg) })
			w.written = time.Now()
			if w.err == nil {
				t.mu.Lock()
				var nv *delta.Versioned
				if nv, w.err = t.ver.Extend(seg); w.err == nil {
					t.ver = nv
					t.written = append(t.written, w.written)
				}
				t.mu.Unlock()
			}
			for _, st := range r.stores {
				var err error
				_, d := tr.timed("store.refresh", 0, func() { err = st.Refresh() })
				w.refresh = append(w.refresh, d)
				if w.err == nil {
					w.err = err
				}
			}
			ws = append(ws, w)
		}
	}()
	return out
}

// candidates returns the snapshots a response for tenant t may come from:
// the one its generation tag names, or — untagged, when shards disagreed —
// every generation live between sent-churnStale and done.
func (t *tenant) candidates(tag string, sent, done time.Time) []*delta.Snapshot {
	if tag != "" {
		hash, stamp, ok := strings.Cut(tag, "@")
		gen, err := strconv.ParseUint(stamp, 10, 64)
		if !ok || err != nil || hash != t.hash {
			return nil
		}
		if sn := t.ver.At(gen); sn != nil && sn.Generation() == gen {
			return []*delta.Snapshot{sn}
		}
		return nil
	}
	var out []*delta.Snapshot
	for s := 0; s <= len(t.written); s++ {
		if s > 0 && t.written[s-1].After(done) {
			break
		}
		if s < len(t.written) && t.written[s].Before(sent.Add(-churnStale)) {
			continue
		}
		out = append(out, t.ver.At(uint64(s)))
	}
	return out
}

func runChurn(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	act := &active{}
	// A multiple of churnTenants, so a pooled body keeps its tenant when
	// the pool cycles. Cycling does not feed the answer cache: every
	// tenant's generation moves on every churnTenants×churnEvery.
	pool := 3072
	if e.toy {
		pool = 384
	}
	var rig *churnRig
	var setups, persist, open []float64
	for k := 0; k < 3; k++ {
		if rig != nil {
			rig.stop()
		}
		start := time.Now()
		var err error
		rig, err = churnSetup(ctx, e, act, k, pool)
		if err != nil {
			rig.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		persist = append(persist, rig.persist...)
		open = append(open, rig.load1...)
		for i, t := range rig.tenants {
			recordBuildCounts(o, "."+strconv.Itoa(i), t.pm, t.b)
		}
	}
	defer rig.stop()
	o.e2e["setup_s"] = median(setups)
	o.e2e["persist_s"] = median(persist)
	o.e2e["open_ms"] = median(open)
	var pes1, facts float64
	for _, t := range rig.tenants {
		pes1 += float64(t.b.pes1Bytes)
		facts += float64(t.pm.Edges())
	}
	o.e2e["bytes_per_fact"] = pes1 / facts

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	storesBefore := storeStats(rig.stores)
	coordBefore := rig.coord.Stats()
	shardsBefore := serverStats(rig.shards)
	wctx, stopWriter := context.WithCancel(ctx)
	writes := rig.runWriter(wctx, act)
	m := measure(ctx, e, o, act, tr, churnLoad, e.dur, churnWarm, rig.load.send, nil)
	stopWriter()
	ws := <-writes
	coordAfter := rig.coord.Stats()
	storesAfter := storeStats(rig.stores)
	shardsAfter := serverStats(rig.shards)
	for _, w := range ws {
		o.attempted++
		if w.err != nil {
			o.failed++
			o.problem("write %s@%d: %v", rig.tenants[w.tenant].name, w.stamp, w.err)
		}
	}

	all := m.all()
	bad, why := checkAll(all, func(s *sample, cache expectCache) (int, string) {
		req := s.Batch % len(rig.queries)
		var cands [][]uint64
		for _, sn := range rig.tenants[req%churnTenants].candidates(s.Resp.gen, s.Sent, s.Done) {
			cands = append(cands, cache.get(req, sn.Generation(), sn, rig.queries[req]))
		}
		return wrongResults(s.Resp, rig.queries[req], cands)
	})
	tally(o, all, bad, why)

	// Replays off the timed path: the stream's first batches against the
	// base indexes (deterministic) and against the head snapshots.
	prefix := rig.queries[:min(30, len(rig.queries))]
	var ids float64
	var headNS, headN float64
	nsAll := map[string]float64{}
	for i, t := range rig.tenants {
		var mine [][]server.Query
		for j := i; j < len(prefix); j += churnTenants {
			mine = append(mine, prefix[j])
		}
		ns, idq := opCosts(t.base, mine)
		for op, v := range ns {
			nsAll[op] += v / churnTenants
		}
		ids += idq / churnTenants
		start := time.Now()
		for _, qs := range mine {
			batchDigest(t.ver.Head(), qs)
		}
		headNS += float64(time.Since(start))
		headN += float64(len(mine) * batchSize)
	}
	o.count("core.ids_per_query_x1000", int64(ids*1000))

	if !e.trace {
		o.e2e["update_visible_ms"] = visibleMS(m.all(), ws, len(rig.queries))
		o.e2e["peak_rss_mib"] = peakRSSMiB()
		return o, nil
	}

	setOpCosts(o, nsAll)
	o.layer["core.ids_per_query"] = ids
	o.layer["delta.snapshot_op_us"] = headNS / headN / 1e3
	var pms []*matrix.PointsTo
	var bs []*built
	var mib, chain float64
	for _, t := range rig.tenants {
		pms = append(pms, t.pm)
		bs = append(bs, t.b)
		mib += float64(t.base.MemoryFootprint()) / (1 << 20)
		chain += float64(t.ver.Chain()) / churnTenants
	}
	setBuildLayers(o, pms, bs)
	o.layer["core.load_pes1_ms"] = median(open)
	o.layer["core.index_mib"] = mib
	o.layer["delta.chain_len"] = chain
	var wr, rf []float64
	for _, w := range ws {
		wr = append(wr, ms(w.write))
		for _, d := range w.refresh {
			rf = append(rf, ms(d))
		}
	}
	o.layer["delta.write_segment_ms"] = mean(wr)
	o.layer["store.refresh_ms"] = mean(rf)
	var applies, loads float64
	for i := range storesAfter {
		applies += float64(storesAfter[i].Applies - storesBefore[i].Applies)
		loads += float64(storesAfter[i].Loads - storesBefore[i].Loads)
	}
	o.layer["store.apply_ratio"] = ratio(applies, applies+loads)

	c0, c1 := coordBefore.Cache, coordAfter.Cache
	o.layer["server.coord.hit_ratio"] = ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses))
	o.layer["server.coord.cache_evictions"] = float64(c1.Evictions - c0.Evictions)
	o.layer["server.coord.dedup"] = float64(coordAfter.BatchDedup - coordBefore.BatchDedup + coordAfter.SingleflightWaits - coordBefore.SingleflightWaits)
	var shardMS, queries []float64
	for i, sh := range coordAfter.Shards {
		b := coordBefore.Shards[i]
		n := float64(sh.Latency.Count - b.Latency.Count)
		shardMS = append(shardMS, ratio(float64(sh.Latency.MeanNS)*float64(sh.Latency.Count)-float64(b.Latency.MeanNS)*float64(b.Latency.Count), n)/1e6)
		queries = append(queries, float64(sh.Queries-b.Queries))
	}
	o.layer["server.coord.shard_ms"] = mean(shardMS)
	o.layer["server.coord.shard_balance"] = ratio(maxOf(queries), mean(queries))

	o.spans = tr.snapshot()
	var coordSpans []span
	var shardIdx []int
	for i, s := range o.spans {
		switch s.Name {
		case "server.coord.handler":
			coordSpans = append(coordSpans, s)
		case "server.handler":
			shardIdx = append(shardIdx, i)
		}
	}
	shardSpans := make([]span, len(shardIdx))
	for j, i := range shardIdx {
		shardSpans[j] = o.spans[i]
	}
	orphans := attachByContainment(shardSpans, coordSpans)
	for j, i := range shardIdx {
		o.spans[i] = shardSpans[j]
	}
	handler := spanMean(o.spans, "server.handler")
	batch := batchMeanMS(shardsBefore, shardsAfter)
	o.layer["server.handler_ms"] = handler
	o.layer["server.batch_ms"] = batch
	o.layer["server.codec_ms"] = handler - batch
	o.layer["server.coord.handler_ms"] = spanMean(o.spans, "server.coord.handler")
	o.layer["bench.net_ms"] = netMS(o.spans, m.traced, "server.coord.handler")
	rows, un, total, n := selfTable(o.spans, "request")
	printTable(e.out, "request", rows, un, total, n)
	fmt.Fprintf(e.out, "  shard spans attached by containment: %d, unattached: %d\n", len(shardSpans)-orphans, orphans)
	fmt.Fprintf(e.out, "  inside server.handler (shards): batch %.4fms (Server.Stats exact mean), codec %.4fms\n", batch, handler-batch)
	fmt.Fprintf(e.out, "  cache hit ratio %.4f, evictions %.0f, dedup %.0f, writes %d, chain %.1f\n",
		o.layer["server.coord.hit_ratio"], o.layer["server.coord.cache_evictions"], o.layer["server.coord.dedup"], len(ws), chain)
	o.layer["bench.unattributed_ms"] = un
	o.layer["bench.error_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	return o, nil
}

// visibleMS is the median, over the segments written while the untraced
// load ran (its fixed-rate and saturated windows alike), of the time from
// the segment file being written to the first coordinator response for its
// tenant that names its generation or a newer one.
func visibleMS(ss []*sample, ws []write, pool int) float64 {
	if len(ss) == 0 {
		return 0
	}
	from, to := ss[0].Due, ss[0].Done
	for _, s := range ss {
		if s.Due.Before(from) {
			from = s.Due
		}
		if s.Done.After(to) {
			to = s.Done
		}
	}
	var v []float64
	for _, w := range ws {
		if w.written.Before(from) || w.written.After(to) {
			continue
		}
		var first time.Time
		for _, s := range ss {
			if s.Resp == nil || (s.Batch%pool)%churnTenants != w.tenant || !s.Done.After(w.written) {
				continue
			}
			_, stamp, _ := strings.Cut(s.Resp.gen, "@")
			if g, err := strconv.ParseUint(stamp, 10, 64); err == nil && g >= w.stamp && (first.IsZero() || s.Done.Before(first)) {
				first = s.Done
			}
		}
		if !first.IsZero() {
			v = append(v, ms(first.Sub(w.written)))
		}
	}
	return median(v)
}

func storeStats(sts []*store.Store) []store.Stats {
	out := make([]store.Stats, len(sts))
	for i, st := range sts {
		out[i] = st.Snapshot()
	}
	return out
}

func serverStats(srvs []*server.Server) []server.Stats {
	out := make([]server.Stats, len(srvs))
	for i, s := range srvs {
		out[i] = s.Stats()
	}
	return out
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
