package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pestrie/internal/delta"
	"pestrie/internal/server"
)

// genBatches generates n batches of the §7.1.1 query mix over base
// pointers (uniform picks, or zipfian with exponent zipf > 1); batch i is a
// pure function of (seed, i).
func genBatches(seed int64, n int, base []int, objects int, zipf float64) [][]server.Query {
	opts := server.BenchOptions{Base: base, NumObjects: objects, BatchSize: batchSize, Mix: server.DefaultMix, ZipfS: zipf}
	out := make([][]server.Query, n)
	for i := range out {
		out[i] = server.GenQueries(rand.New(rand.NewSource(server.BatchSeed(seed, i))), &opts)
	}
	return out
}

// expected answers one query directly against an index.
func expected(ix delta.Index, q server.Query) (alias bool, ids []int) {
	switch q.Op {
	case "isalias":
		return ix.IsAlias(*q.P, *q.Q), nil
	case "aliases":
		return false, ix.ListAliases(*q.P)
	case "pointsto":
		return false, ix.ListPointsTo(*q.P)
	default:
		return false, ix.ListPointedBy(*q.O)
	}
}

// expectCache memoizes the reference digests of a pooled request at a
// generation, so a request the pool repeats is answered once.
type expectCache map[[2]uint64][]uint64

func (c expectCache) get(req int, gen uint64, ix delta.Index, qs []server.Query) []uint64 {
	key := [2]uint64{uint64(req), gen}
	if d, ok := c[key]; ok {
		return d
	}
	d := make([]uint64, len(qs))
	for i, q := range qs {
		d[i] = resultDigest(expected(ix, q))
	}
	c[key] = d
	return d
}

// checkAll checks every sample on every core, off the timed path, giving
// each worker its own reference cache. It returns the wrong-result count
// and a description per sample.
func checkAll(ss []*sample, check func(s *sample, cache expectCache) (int, string)) ([]int, []string) {
	bad, why := make([]int, len(ss)), make([]string, len(ss))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := expectCache{}
			for i := w; i < len(ss); i += workers {
				if ss[i].Err == nil {
					bad[i], why[i] = check(ss[i], cache)
				}
			}
		}()
	}
	wg.Wait()
	return bad, why
}

// tally adds checked batches to the outcome: every query attempted, every
// wrong result or failed batch failed.
func tally(o *outcome, all []*sample, bad []int, why []string) {
	for i, s := range all {
		o.attempted += batchSize
		if s.Err != nil {
			o.failed += batchSize
			o.problem("batch %d: %v", s.Batch, s.Err)
		} else if bad[i] > 0 {
			o.failed += bad[i]
			o.problem("batch %d (generation %q): %d wrong results: %s", s.Batch, s.Resp.gen, bad[i], why[i])
		}
	}
}

// wrongResults counts the results of one response that match none of the
// candidate reference digests, and describes one of them.
func wrongResults(r *scanned, qs []server.Query, candidates [][]uint64) (bad int, why string) {
	if len(r.res) != len(qs) {
		return len(qs), fmt.Sprintf("%d results for %d queries", len(r.res), len(qs))
	}
	if len(candidates) == 0 {
		return len(qs), fmt.Sprintf("generation %q matches no reference snapshot", r.gen)
	}
	errs := 0
	for i, d := range r.res {
		if d == 0 {
			bad++
			why = fmt.Sprintf("result %d (%s): server error %q", i, qs[i].Op, r.errs[errs])
			errs++
			continue
		}
		ok := false
		for _, c := range candidates {
			if c[i] == d {
				ok = true
				break
			}
		}
		if !ok {
			bad++
			why = fmt.Sprintf("result %d (%s) differs from the reference answer", i, qs[i].Op)
		}
	}
	return bad, why
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// batchDigest answers a batch in-process and folds the answers into one
// digest.
func batchDigest(ix delta.Index, qs []server.Query) uint64 {
	var d uint64
	for i, q := range qs {
		d += mix64(resultDigest(expected(ix, q)) + uint64(i)*0x632be59bd9b4e019)
	}
	return d
}

// opCosts replays batches against ix one query at a time and returns the
// mean cost of each op in ns, plus the mean answer length per query.
func opCosts(ix delta.Index, batches [][]server.Query) (nsPerOp map[string]float64, idsPerQuery float64) {
	sum := map[string]time.Duration{}
	n := map[string]int{}
	ids, queries := 0, 0
	for _, qs := range batches {
		for _, q := range qs {
			start := time.Now()
			_, got := expected(ix, q)
			sum[q.Op] += time.Since(start)
			n[q.Op]++
			ids += len(got)
			queries++
		}
	}
	nsPerOp = map[string]float64{}
	for op, d := range sum {
		nsPerOp[op] = float64(d) / float64(n[op])
	}
	return nsPerOp, ratio(float64(ids), float64(queries))
}

// setOpCosts records the core.* per-op metrics from an opCosts replay.
func setOpCosts(o *outcome, ns map[string]float64) {
	o.layer["core.isalias_ns"] = ns["isalias"]
	o.layer["core.aliases_us"] = ns["aliases"] / 1e3
	o.layer["core.pointsto_us"] = ns["pointsto"] / 1e3
	o.layer["core.pointedby_us"] = ns["pointedby"] / 1e3
}
