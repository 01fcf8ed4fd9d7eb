package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pestrie/internal/anders"
	"pestrie/internal/core"
	"pestrie/internal/ir"
	"pestrie/internal/matrix"
	"pestrie/internal/server"
	"pestrie/internal/synth"
)

// The persist workload is the pay-once path with no server: (a) a seeded
// anders-large program as IR text through parse, analysis, build, both
// writers and both openers, and (b) a seeded fop@0.05 synthetic matrix
// through the same build, write and open steps. (a) spends its time in the
// solver, in a dense matrix and in a slow PES1 decode, with few rectangles;
// (b) spends it in rectangle generation and Theorem-2 pruning. After the
// pipeline, the reopened PES2 indexes answer the query mix in-process.
const (
	persistProg   = "anders-large"
	persistMatrix = "fop"
	persistScale  = 0.05
	// persistRate is the fixed offered rate of in-process batches/s,
	// about half the highest rate that met persistLimit at the commit
	// that introduced the benchmark, on a 2-core machine.
	persistRate  = 100.0
	persistLimit = 20 * time.Millisecond
	// persistReopens is how many more times each pass reopens its PES2
	// files for update_visible_ms.
	persistReopens = 7
)

var persistLoad = load{rate: persistRate, limit: persistLimit, share: 0.7}

type persistInput struct {
	irText []byte           // (a), as a client would hand it over
	pm     *matrix.PointsTo // (b)
}

// persistSetup generates the corpus: both inputs are the presets at their
// built-in seeds (across seeds these inputs differ by up to 2× in size and
// solve time, more than any bound could absorb); the workload seed drives
// the query streams.
func persistSetup(e *env) *persistInput {
	prog, name, scale := persistProg, persistMatrix, persistScale
	if e.toy {
		prog, scale = "anders-base", 0.001
	}
	var text bytes.Buffer
	ir.Generate(ir.ProgPresetByName(prog).Opts).Print(&text)
	return &persistInput{irText: text.Bytes(), pm: synth.PresetByName(name).Generate(scale)}
}

// iteration is one pass of the pipeline over the corpus.
type iteration struct {
	parse, analyze time.Duration
	res            *anders.Result
	in             [2]*built
	pm             [2]*matrix.PointsTo
	ix1, ix2       [2]*core.Index // PES1 decoded, PES2 mapped
	load1          time.Duration  // summed over the corpus
	open2          time.Duration  // finished PES2 file → first answer, summed
	// open2 and persistReopens more reopens of the same files, each
	// summed over the corpus.
	reopen []time.Duration
}

func (it *iteration) persist() time.Duration {
	return it.parse + it.analyze + it.in[0].persistTime() + it.in[1].persistTime()
}

// release unmaps the PES2 files and drops the iteration's heavy state,
// keeping only its timings.
func (it *iteration) release() {
	for _, ix := range it.ix2 {
		if ix != nil {
			ix.Close()
		}
	}
	it.res, it.pm, it.ix1, it.ix2 = nil, [2]*matrix.PointsTo{}, [2]*core.Index{}, [2]*core.Index{}
	for _, b := range it.in {
		if b != nil {
			b.trie = nil
		}
	}
}

func persistIteration(t *tracer, in *persistInput, dir string, k int) (*iteration, error) {
	it := &iteration{}
	root, start := t.newID(), time.Now()
	var prog *ir.Program
	var err error
	_, it.parse = t.timed("ir.parse", root, func() { prog, err = ir.Parse(bytes.NewReader(in.irText)) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	_, it.analyze = t.timed("anders.analyze", root, func() { it.res, err = anders.Analyze(prog, nil) })
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	it.pm = [2]*matrix.PointsTo{it.res.PM, in.pm}
	// The inputs are independent jobs: each starts on a collected heap, so
	// the process's peak does not depend on whether the collector happened
	// to free one input's garbage before the next one's build.
	for i, pm := range it.pm {
		runtime.GC()
		if it.in[i], err = buildAndWrite(t, root, pm, filepath.Join(dir, fmt.Sprintf("in%d-%d", i, k)), true); err != nil {
			return nil, fmt.Errorf("writing input %d: %w", i, err)
		}
	}
	runtime.GC()
	for i, b := range it.in {
		var d time.Duration
		_, d = t.timed("core.load_pes1", root, func() { it.ix1[i], err = loadPES1(b.pes1) })
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", b.pes1, err)
		}
		it.load1 += d
		_, d = t.timed("core.open_pes2", root, func() {
			if it.ix2[i], err = core.OpenFile(b.pes2); err == nil {
				it.ix2[i].IsAlias(0, 0) // the first answer from the new file
			}
		})
		if err != nil {
			it.release()
			return nil, fmt.Errorf("opening %s: %w", b.pes2, err)
		}
		it.open2 += d
	}
	if t != nil {
		t.record(span{ID: root, Name: "iteration", Start: t.at(start), End: t.at(time.Now())})
	}
	// A first answer takes milliseconds, so the pass reopens each file a
	// few more times, outside the spans; update_visible_ms is the median
	// over every open of every pass.
	it.reopen = []time.Duration{it.open2}
	for r := 0; r < persistReopens; r++ {
		var sum time.Duration
		for _, b := range it.in {
			start := time.Now()
			ix, err := core.OpenFile(b.pes2)
			if err != nil {
				it.release()
				return nil, fmt.Errorf("reopening %s: %w", b.pes2, err)
			}
			ix.IsAlias(0, 0)
			sum += time.Since(start)
			ix.Close()
		}
		it.reopen = append(it.reopen, sum)
	}
	return it, nil
}

// recordCounts asserts the deterministic counts of one iteration.
func (it *iteration) recordCounts(o *outcome) {
	st := it.res.Stats
	o.count("anders.constraints", int64(st.Constraints))
	o.count("anders.hvn_merged", int64(st.HVNMerged))
	o.count("anders.cycle_merged", int64(st.CycleMerged))
	o.count("anders.rounds", int64(st.Rounds))
	for i, b := range it.in {
		recordBuildCounts(o, fmt.Sprintf(".%d", i), it.pm[i], b)
	}
}

// gate checks the reopened files off the timed path: both recover the
// input matrix exactly, and PES1 and PES2 answer a seeded sample alike.
func (it *iteration) gate(o *outcome, seed int64) {
	for i, pm := range it.pm {
		for f, ix := range []*core.Index{it.ix1[i], it.ix2[i]} {
			o.attempted++
			if !ix.RecoverMatrix().Equal(pm) {
				o.failed++
				o.problem("input %d: PES%d file does not recover the input matrix", i, f+1)
			}
		}
		for _, qs := range genBatches(splitmix(seed, 10+i), 8, synth.BasePointers(pm, 10), pm.NumObjects, 0) {
			o.attempted += len(qs)
			if batchDigest(it.ix1[i], qs) != batchDigest(it.ix2[i], qs) {
				o.failed += len(qs)
				o.problem("input %d: PES1 and PES2 answer a sample batch differently", i)
			}
		}
	}
}

func runPersist(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	var in *persistInput
	// Set-up takes a fraction of a second, so it is repeated and
	// setup_s is the median.
	var setups []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		in = persistSetup(e)
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	// Pipeline passes fill half the run (at least two, so the counts are
	// seen to repeat); traced runs trace every second one.
	act := &active{}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var its []*iteration
	var untraced, traced []float64
	pipeEnd := time.Now().Add(e.dur / 2)
	var lastDur time.Duration
	for k := 0; k < 2 || time.Now().Add(lastDur).Before(pipeEnd); k++ {
		start := time.Now()
		var t *tracer
		if e.trace && (k%2 == 1) {
			t = tr
		}
		if k > 0 {
			its[k-1].release()
		}
		runtime.GC()
		it, err := persistIteration(t, in, e.dir, k)
		if err != nil {
			return nil, err
		}
		it.recordCounts(o)
		if t != nil {
			traced = append(traced, it.persist().Seconds())
		} else {
			untraced = append(untraced, it.persist().Seconds())
		}
		its = append(its, it)
		lastDur = time.Since(start)
		fmt.Fprintf(e.out, "iteration %d: persist %.3fs open %.1fms traced=%v\n", k, it.persist().Seconds(), ms(it.load1+it.open2), t != nil)
	}
	last := its[len(its)-1]
	defer last.release()
	last.gate(o, e.seed)

	var open, visible []float64
	for _, it := range its {
		open = append(open, ms(it.load1+it.open2))
		for _, d := range it.reopen {
			visible = append(visible, ms(d))
		}
	}
	o.e2e["persist_s"] = median(untraced)
	o.e2e["open_ms"] = median(open)
	o.e2e["update_visible_ms"] = median(visible)
	facts := float64(last.pm[0].Edges() + last.pm[1].Edges())
	o.e2e["bytes_per_fact"] = float64(last.in[0].pes1Bytes+last.in[1].pes1Bytes) / facts
	st := last.res.Stats
	o.layer["anders.constraints"] = float64(st.Constraints)
	o.layer["anders.hvn_merged"] = float64(st.HVNMerged)
	o.layer["anders.cycle_merged"] = float64(st.CycleMerged)
	o.layer["anders.rounds"] = float64(st.Rounds)
	setBuildLayers(o, last.pm[:], last.in[:])
	var mib float64
	for _, ix := range last.ix1 {
		mib += float64(ix.MemoryFootprint()) / (1 << 20)
	}
	o.layer["core.index_mib"] = mib

	// In-process queries against the reopened PES2 indexes: every batch
	// asks half its queries of each input, so all batches do the same kind
	// of work and the latency distribution has one mode. Only the indexes
	// stay live, so the collector does not trace the pipeline's leftovers
	// while batches are timed.
	var pools [2][][]server.Query
	for i, pm := range last.pm {
		pools[i] = genBatches(splitmix(e.seed, 2+i), 256, synth.BasePointers(pm, 10), pm.NumObjects, 0)
	}
	last.res, last.pm = nil, [2]*matrix.PointsTo{}
	for _, b := range last.in {
		b.trie = nil
	}
	answer := func(ix [2]*core.Index, b int) uint64 {
		var d uint64
		for k, pool := range pools {
			d += batchDigest(ix[k], pool[b%len(pool)][:batchSize/2])
		}
		return d
	}
	send := func(_ context.Context, s *sample) error {
		start := time.Now()
		s.Sum = answer(last.ix2, s.Batch)
		if t := act.get(); t != nil {
			s.ReqID = t.newID()
			t.record(span{ID: t.newID(), Parent: s.ReqID, Name: "core.batch", Start: t.at(start), End: t.at(time.Now())})
		}
		return nil
	}
	if err := warmUp(ctx, 0, 64, send); err != nil {
		return nil, err
	}
	m := measure(ctx, e, o, act, tr, persistLoad, e.dur/2, 64, send, nil)

	// Checks and replays off the timed path. The pools cycle, so each
	// pooled batch's PES1 answer is computed once.
	want := map[int]uint64{}
	for _, s := range m.all() {
		o.attempted += batchSize
		key := s.Batch % len(pools[0])
		if _, ok := want[key]; !ok {
			want[key] = answer(last.ix1, key)
		}
		if s.Err != nil || s.Sum != want[key] {
			o.failed += batchSize
			o.problem("in-process batch %d: PES2 answers differ from PES1", s.Batch)
		}
	}
	ns := map[string]float64{}
	var ids float64
	for k := range pools {
		nk, ik := opCosts(last.ix2[k], pools[k][:32])
		for op, v := range nk {
			ns[op] += v / 2
		}
		ids += ik / 2
	}
	o.count("core.ids_per_query_x1000", int64(ids*1000))
	setOpCosts(o, ns)
	o.layer["core.ids_per_query"] = ids

	if !e.trace {
		o.e2e["peak_rss_mib"] = peakRSSMiB()
		return o, nil
	}
	o.layer["bench.trace_overhead"] = ratio(median(traced), median(untraced))
	var tIts []*iteration
	for k, it := range its {
		if k%2 == 1 {
			tIts = append(tIts, it)
		}
	}
	avg := func(f func(*iteration) float64) float64 {
		v := make([]float64, len(tIts))
		for i, it := range tIts {
			v[i] = f(it)
		}
		return mean(v)
	}
	sumIn := func(f func(*built) time.Duration) func(*iteration) float64 {
		return func(it *iteration) float64 { return ms(f(it.in[0]) + f(it.in[1])) }
	}
	o.layer["ir.parse_ms"] = avg(func(it *iteration) float64 { return ms(it.parse) })
	o.layer["anders.analyze_s"] = avg(func(it *iteration) float64 { return it.analyze.Seconds() })
	o.layer["core.build_s"] = avg(sumIn(func(b *built) time.Duration { return b.build })) / 1e3
	o.layer["core.index_build_ms"] = avg(sumIn(func(b *built) time.Duration { return b.index }))
	o.layer["core.write_pes1_ms"] = avg(sumIn(func(b *built) time.Duration { return b.write1 }))
	o.layer["core.write_pes2_ms"] = avg(sumIn(func(b *built) time.Duration { return b.write2 }))
	o.layer["core.load_pes1_ms"] = avg(func(it *iteration) float64 { return ms(it.load1) })
	o.layer["core.open_pes2_ms"] = avg(func(it *iteration) float64 { return ms(it.open2) })

	o.spans = tr.snapshot()
	for _, root := range []string{"iteration", "request"} {
		rows, un, total, n := selfTable(o.spans, root)
		printTable(e.out, root, rows, un, total, n)
		if root == "iteration" {
			o.layer["bench.unattributed_ms"] = un
		}
	}
	fmt.Fprintf(e.out, "tracing overhead: traced/untraced persist_s = %.4f\n", o.layer["bench.trace_overhead"])
	o.layer["bench.error_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	return o, nil
}
