package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/matrix"
	"pestrie/internal/server"
	"pestrie/internal/store"
	"pestrie/internal/synth"
)

// The serve workload is one server.Server over a store-backed PES2 index
// of a seeded antlr@0.01 matrix, driven open-loop at a fixed offered rate
// with 128-query /batch requests of server.DefaultMix over the §7.1.1 base
// pointers (stride 10, uniform picks). There is no cache, no coordinator
// and no write, so request decode, store acquire, the index ops and result
// encode carry the whole latency.
const (
	servePreset = "antlr"
	serveScale  = 0.01
	serveName   = "antlr"
	// serveRate (batches/s) is about half the highest rate that met
	// serveLimit at the commit that introduced the benchmark, on a 2-core
	// machine.
	serveRate  = 90.0
	serveLimit = 50 * time.Millisecond
	serveReps  = 8
	// serveProbes time-to-first-answer probes follow each saturated
	// window, so update_visible_ms samples the whole run.
	serveProbes = 4
)

var serveLoad = load{rate: serveRate, limit: serveLimit, share: 0.85}

// serveRig is one set-up of the serve workload.
type serveRig struct {
	pm      *matrix.PointsTo
	b       *built
	ref     *core.Index // PES1-decoded reference for the correctness gate
	st      *store.Store
	srv     *server.Server
	ls      *listener
	load    *httpLoad
	queries [][]server.Query
	tag     string // the version tag the served generation reports
	// One-query /batch request that probes the time to a first answer.
	probeBody []byte
	// Per repetition: pay-once time (s), PES1 decode and PES2 map (ms).
	persist, load1, open2 []float64
	// Per probe between the load windows: finished file to first
	// response (ms).
	visible []float64
}

func (r *serveRig) stop() {
	if r.load != nil {
		r.load.close()
	}
	if r.ls != nil {
		r.ls.stop()
	}
	r.load, r.ls = nil, nil
}

func serveSetup(ctx context.Context, e *env, act *active, k, pool int) (*serveRig, error) {
	r := &serveRig{}
	scale := serveScale
	if e.toy {
		scale = 0.002
	}
	// The index is the preset at its built-in seed; the workload seed
	// drives the query stream.
	r.pm = synth.PresetByName(servePreset).Generate(scale)
	r.queries = genBatches(splitmix(e.seed, 1), pool, synth.BasePointers(r.pm, 10), r.pm.NumObjects, 0)
	bodies := make([][]byte, len(r.queries))
	for i, qs := range r.queries {
		var err error
		if bodies[i], err = server.MarshalBatchRequest(serveName, qs); err != nil {
			return nil, err
		}
	}
	// The pay-once steps and the time to a first answer take milliseconds
	// here, so each set-up repeats them and the run reports medians.
	for i := 0; i < serveReps; i++ {
		b, err := buildAndWrite(nil, 0, r.pm, filepath.Join(e.dir, fmt.Sprintf("serve-%d-%d", k, i)), true)
		if err != nil {
			return r, err
		}
		start := time.Now()
		ref, err := loadPES1(b.pes1)
		if err != nil {
			return r, err
		}
		load1 := time.Since(start)
		start = time.Now()
		ix2, err := core.OpenFile(b.pes2)
		if err != nil {
			return r, err
		}
		r.open2 = append(r.open2, ms(time.Since(start)))
		ix2.Close()
		r.load1 = append(r.load1, ms(load1))
		r.persist = append(r.persist, b.persistTime().Seconds())
		r.b, r.ref = b, ref
	}

	// Start serving the finished file; the time to this first answer is
	// measured between the load windows (see probe).
	var err error
	if r.probeBody, err = server.MarshalBatchRequest(serveName, r.queries[0][:1]); err != nil {
		return r, err
	}
	if r.tag, err = r.probe(ctx, e, act, true); err != nil {
		return r, err
	}
	r.load = newHTTPLoad(r.ls.url, bodies, act)
	return r, warmUp(ctx, 0, 64, r.load.send)
}

// probe catalogs the finished PES2 file in a new store, starts a server
// over it and asks one query, returning the version tag the first
// response names after checking its answer. With keep it becomes the
// served rig; otherwise it is stopped, and only the time from the
// finished file to that response is recorded in r.visible.
func (r *serveRig) probe(ctx context.Context, e *env, act *active, keep bool) (string, error) {
	start := time.Now()
	st := store.New(store.Options{})
	if err := st.Add(serveName, r.b.pes2); err != nil {
		return "", err
	}
	srv := server.New(server.Options{Store: st})
	h := srv.Handler()
	if e.trace {
		h = act.wrap("server.handler", h)
	}
	ls, err := listen(h)
	if err != nil {
		return "", err
	}
	probe := newHTTPLoad(ls.url, [][]byte{r.probeBody}, act)
	first := &sample{}
	err = probe.send(ctx, first)
	probe.close()
	d := time.Since(start)
	if keep {
		r.st, r.srv, r.ls = st, srv, ls
	} else if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return "", fmt.Errorf("first request: %w", err)
	}
	tag := st.VersionTags()[serveName]
	probeQ := r.queries[0][:1]
	want := expectCache{}.get(0, 0, r.ref, probeQ)
	if bad, why := wrongResults(first.Resp, probeQ, [][]uint64{want}); bad > 0 || tag == "" || first.Resp.gen != tag {
		return "", fmt.Errorf("first response (generation %q, store %q): %d wrong results: %s", first.Resp.gen, tag, bad, why)
	}
	if !keep {
		r.visible = append(r.visible, ms(d))
	}
	return tag, nil
}

// wrong counts the results of one response that differ from the
// reference index's answers; the response must name the served generation.
func (r *serveRig) wrong(s *sample, cache expectCache) (int, string) {
	req := s.Batch % len(r.queries)
	var cands [][]uint64
	if s.Resp.gen == r.tag {
		cands = append(cands, cache.get(req, 0, r.ref, r.queries[req]))
	}
	return wrongResults(s.Resp, r.queries[req], cands)
}

func runServe(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	act := &active{}
	// The pool cycles; with no cache and no writes, repeating a request
	// changes nothing the server does.
	pool := 256
	var rig *serveRig
	var setups, persist, load1, open2 []float64
	for k := 0; k < 3; k++ {
		if rig != nil {
			rig.stop()
		}
		start := time.Now()
		var err error
		rig, err = serveSetup(ctx, e, act, k, pool)
		if err != nil {
			if rig != nil {
				rig.stop()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		persist = append(persist, rig.persist...)
		load1 = append(load1, rig.load1...)
		open2 = append(open2, rig.open2...)
		recordBuildCounts(o, "", rig.pm, rig.b)
	}
	defer rig.stop()
	o.e2e["setup_s"] = median(setups)
	o.e2e["persist_s"] = median(persist)
	o.e2e["open_ms"] = median(load1) + median(open2)
	o.e2e["bytes_per_fact"] = float64(rig.b.pes1Bytes) / float64(rig.pm.Edges())

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	statsBefore := rig.srv.Stats()
	var probeErr error
	between := func() {
		for i := 0; i < serveProbes && probeErr == nil; i++ {
			_, probeErr = rig.probe(ctx, e, act, false)
		}
	}
	m := measure(ctx, e, o, act, tr, serveLoad, e.dur, 64, rig.load.send, between)
	statsAfter := rig.srv.Stats()
	if probeErr != nil {
		return nil, fmt.Errorf("time-to-first-answer probe: %w", probeErr)
	}
	all := m.all()
	bad, why := checkAll(all, rig.wrong)
	tally(o, all, bad, why)
	h, err := rig.st.Acquire(ctx, serveName)
	if err != nil {
		return nil, err
	}
	ns, ids := opCosts(h.Index(), rig.queries[:32])
	served := h.Index().MemoryFootprint()
	h.Release()
	o.count("core.ids_per_query_x1000", int64(ids*1000))
	if !e.trace {
		o.e2e["update_visible_ms"] = median(rig.visible)
		fmt.Fprintf(e.out, "first answer: median %.4fms over %d probes between the windows\n", o.e2e["update_visible_ms"], len(rig.visible))
		o.e2e["peak_rss_mib"] = peakRSSMiB()
		return o, nil
	}

	setOpCosts(o, ns)
	o.layer["core.ids_per_query"] = ids
	o.layer["core.index_mib"] = float64(served) / (1 << 20)
	setBuildLayers(o, []*matrix.PointsTo{rig.pm}, []*built{rig.b})
	o.layer["core.load_pes1_ms"] = median(load1)
	o.layer["core.open_pes2_ms"] = median(open2)
	const acquires = 10000
	start := time.Now()
	for i := 0; i < acquires; i++ {
		h, err := rig.st.Acquire(ctx, serveName)
		if err != nil {
			return nil, err
		}
		h.Release()
	}
	o.layer["store.acquire_us"] = float64(time.Since(start)) / acquires / 1e3

	o.spans = tr.snapshot()
	handler := spanMean(o.spans, "server.handler")
	batch := batchMeanMS([]server.Stats{statsBefore}, []server.Stats{statsAfter})
	o.layer["server.handler_ms"] = handler
	o.layer["server.batch_ms"] = batch
	o.layer["server.codec_ms"] = handler - batch
	o.layer["bench.net_ms"] = netMS(o.spans, m.traced, "server.handler")
	rows, un, total, n := selfTable(o.spans, "request")
	printTable(e.out, "request", rows, un, total, n)
	fmt.Fprintf(e.out, "  inside server.handler: batch %.4fms (Server.Stats exact mean), codec %.4fms (handler − batch)\n", batch, handler-batch)
	o.layer["bench.unattributed_ms"] = un
	o.layer["bench.error_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	return o, nil
}

// batchMeanMS is the exact mean of the servers' "batch" latency over the
// interval between two Stats snapshots (sum ÷ count, never a quantile).
func batchMeanMS(before, after []server.Stats) float64 {
	var sum, count float64
	add := func(sts []server.Stats, sign float64) {
		for _, st := range sts {
			for _, ops := range st.Backends {
				b := ops["batch"]
				sum += sign * float64(b.Latency.MeanNS) * float64(b.Latency.Count)
				count += sign * float64(b.Latency.Count)
			}
		}
	}
	add(before, -1)
	add(after, 1)
	return ratio(sum, count) / 1e6
}

// recordBuildCounts asserts the deterministic counts of one built input.
func recordBuildCounts(o *outcome, suffix string, pm *matrix.PointsTo, b *built) {
	ts := b.trie.Stats()
	o.count("matrix.facts"+suffix, int64(pm.Edges()))
	o.count("core.rects"+suffix, int64(ts.Rectangles))
	o.count("core.rects_pruned"+suffix, int64(ts.Pruned))
	o.count("core.pes1_bytes"+suffix, b.pes1Bytes)
	o.count("core.pes2_bytes"+suffix, b.pes2Bytes)
}

// setBuildLayers records the matrix.* and core.* build and size metrics
// summed over a workload's inputs.
func setBuildLayers(o *outcome, pms []*matrix.PointsTo, bs []*built) {
	var facts, rects, pruned, cands, p1, p2, build, w1, w2, ix float64
	for i, b := range bs {
		ts := b.trie.Stats()
		facts += float64(pms[i].Edges())
		rects += float64(ts.Rectangles)
		pruned += float64(ts.Pruned)
		cands += float64(ts.Candidates)
		p1 += float64(b.pes1Bytes)
		p2 += float64(b.pes2Bytes)
		build += b.build.Seconds()
		w1 += ms(b.write1)
		w2 += ms(b.write2)
		ix += ms(b.index)
	}
	o.layer["matrix.facts"] = facts
	o.layer["core.rects"] = rects
	o.layer["core.rects_pruned"] = pruned
	o.layer["core.rect_keep_ratio"] = ratio(rects, cands)
	o.layer["core.pes1_bytes"] = p1
	o.layer["core.pes2_bytes"] = p2
	o.layer["core.build_s"] = build
	o.layer["core.write_pes1_ms"] = w1
	o.layer["core.write_pes2_ms"] = w2
	o.layer["core.index_build_ms"] = ix
}
