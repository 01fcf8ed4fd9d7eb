package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"pestrie/internal/server"
)

// TestToyWorkloads runs every workload at toy scale, untraced and traced,
// through its correctness gate, and checks that each run prints every
// metric of its catalog with its unit and repeats its deterministic counts.
func TestToyWorkloads(t *testing.T) {
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			var counts map[string]int64
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				e := &env{seed: 7, dur: 3 * time.Second, trace: traced, toy: true, dir: t.TempDir(), out: &out}
				o, err := wl(context.Background(), e)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				line, correct := result(e, o)
				if !correct {
					t.Fatalf("traced=%v: incorrect run: failed %d of %d, problems %q\n%s", traced, o.failed, o.attempted, o.problems, out.String())
				}
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				catalog := endToEnd
				if traced {
					catalog = perLayer
				}
				if len(res.Metrics) != len(catalog) {
					t.Errorf("traced=%v: %d metrics printed, catalog has %d", traced, len(res.Metrics), len(catalog))
				}
				for _, m := range catalog {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s printed as %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced && !strings.Contains(out.String(), "unattributed") {
					t.Errorf("traced run printed no self-time table:\n%s", out.String())
				}
				if counts != nil && !maps.Equal(counts, o.counts) {
					t.Errorf("deterministic counts differ between runs of one seed:\n%v\n%v", counts, o.counts)
				}
				counts = o.counts
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogs the benchmark prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	// Each workload's why records its fixed offered rate and p99 limit.
	loads := map[string]load{"persist": persistLoad, "serve": serveLoad, "churn": churnLoad}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		ld, ok := loads[w.Name]
		if _, known := workloads[w.Name]; !ok || !known {
			t.Errorf("unknown workload %q", w.Name)
			continue
		}
		rate := fmt.Sprintf("%g batch/s", ld.rate)
		limit := fmt.Sprintf("p99 limit %dms", ld.limit.Milliseconds())
		if !strings.Contains(w.Why, rate) || !strings.Contains(w.Why, limit) {
			t.Errorf("%s: why %q does not record %q and %q", w.Name, w.Why, rate, limit)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i].Name != c.want[i].Name || c.got[i].Unit != c.want[i].Unit || c.got[i].Better != c.want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestSelfTime checks the self-time arithmetic on span trees with known
// answers: overlapping children are each charged their own time but cover
// their parent once, a child running past its parent is clipped, and the
// roots' uncovered time is unattributed.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 6, Name: "request", Start: 200, End: 260},
		{ID: 7, Parent: 6, Name: "a", Start: 200, End: 260},
		{ID: 8, Name: "other", Start: 0, End: 1000},
	}
	want := map[int64]int64{1: 40, 2: 20, 3: 30, 4: 10, 5: 10, 6: 0, 7: 60, 8: 1000}
	if self := selfTimes(spans); !maps.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	rows, un, total, roots := selfTable(spans, "request")
	if roots != 2 || un != 20/1e6 || total != 80/1e6 {
		t.Errorf("roots %d, unattributed %v, total %v; want 2, 2e-05, 8e-05", roots, un, total)
	}
	got := map[string]float64{}
	for _, r := range rows {
		got[r.Name] = r.Self
	}
	if !maps.Equal(got, map[string]float64{"a": 40 / 1e6, "a1": 5 / 1e6, "b": 15 / 1e6, "c": 5 / 1e6}) {
		t.Errorf("rows %v", got)
	}

	// Sequential layers: the table adds up to the end-to-end time.
	seq := []span{
		{ID: 1, Name: "request", Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: "bench.gen_lag", Start: 0, End: 5},
		{ID: 3, Parent: 1, Name: "server.handler", Start: 12, End: 40},
	}
	rows, un, total, _ = selfTable(seq, "request")
	sum := un
	for _, r := range rows {
		sum += r.Self
	}
	if un != 17/1e6 || math.Abs(sum-total) > 1e-12 {
		t.Errorf("unattributed %v (want 1.7e-05), layers+unattributed %v, total %v", un, sum, total)
	}
}

func TestAttachByContainment(t *testing.T) {
	parents := []span{{ID: 1, Start: 0, End: 100}, {ID: 2, Start: 50, End: 80}}
	kids := []span{{ID: 10, Start: 60, End: 70}, {ID: 11, Start: 10, End: 20}, {ID: 12, Start: 90, End: 110}}
	if orphans := attachByContainment(kids, parents); orphans != 1 {
		t.Errorf("orphans = %d, want 1", orphans)
	}
	if kids[0].Parent != 2 || kids[1].Parent != 1 || kids[2].Parent != 0 {
		t.Errorf("parents %d %d %d, want 2 1 0", kids[0].Parent, kids[1].Parent, kids[2].Parent)
	}
}

func TestRankQuantile(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i)
	}
	if q := rankQuantile(v, 0.99); q != 990 {
		t.Errorf("p99 = %v, want 990", q)
	}
	if n := beyond(len(v), 0.99); n != 10 {
		t.Errorf("beyond p99 = %d, want 10", n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestScanBatch checks the streaming digest against the server's own
// response encoding.
func TestScanBatch(t *testing.T) {
	yes, no := true, false
	ids := []int{5, 3, 9}
	raw, _ := json.Marshal(ids)
	empty, _ := json.Marshal([]int(nil))
	resp := server.BatchResponse{
		Results:    []server.Result{{Alias: &yes}, {Alias: &no}, {IDs: raw}, {IDs: empty}, {Err: "p 9 out of range [0,3)"}},
		Generation: "00ff@3",
		Unanswered: 1,
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(resp); err != nil {
		t.Fatal(err)
	}
	got, err := scanBatch(body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{resultDigest(true, nil), resultDigest(false, nil), resultDigest(false, []int{9, 5, 3}), resultDigest(false, nil), 0}
	if !slices.Equal(got.res, want) || got.gen != "00ff@3" || got.unanswered != 1 || len(got.errs) != 1 {
		t.Errorf("scanned %+v, want digests %v", got, want)
	}
	if _, err := scanBatch([]byte(`{"results":[{"ids":[1,2}]}`)); err == nil {
		t.Error("malformed body scanned without error")
	}
}
