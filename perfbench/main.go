// Command perfbench is the repository's benchmark. It runs one workload in
// one process, drives the system only through the public functions of its
// packages, checks every output, and prints every metric with its name and
// unit; the last line of standard output is one JSON object:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with spans recorded around the calls into each layer
// and reports the per-layer metrics, the self-time table and the tracing
// overhead. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what a workload gets from the command line.
type env struct {
	seed  int64
	dur   time.Duration
	trace bool
	toy   bool   // self-test scale: tiny inputs, same code paths
	dir   string // scratch directory for the run's files
	out   io.Writer
}

// outcome is what a workload reports.
type outcome struct {
	attempted int // queries (or pipeline steps) attempted
	failed    int // failed, refused, unanswered, errored or wrong
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	// counts must repeat exactly for a fixed seed; the benchmark asserts
	// it within a run and across runs of the same source.
	counts map[string]int64
	spans  []span // written out at the end of a traced run
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int64{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// count records a deterministic count, flagging a value that differs from
// an earlier record of the same name in this run.
func (o *outcome) count(name string, v int64) {
	if old, ok := o.counts[name]; ok && old != v {
		o.problem("determinism: %s was %d, now %d", name, old, v)
	}
	o.counts[name] = v
}

type workloadFunc func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"persist": runPersist,
	"serve":   runServe,
	"churn":   runChurn,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: persist, serve or churn")
	seed := fset.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fset.Int("seconds", 30, "measuring time of one run")
	trace := fset.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload persist|serve|churn, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	digest, err := sourceDigest(".")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: hashing sources: %v\n", err)
		return 1
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	e := &env{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir, out: out}
	prov := provenance(digest, *name, *seed, *trace == 1)
	fmt.Fprintf(out, "provenance %s\n", prov)

	o, err := wl(context.Background(), e)
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fp := filepath.Join(".bench_build", "fingerprints", digest[:16], fmt.Sprintf("%s-seed%d.json", *name, *seed))
	if err := checkFingerprint(fp, o.counts); err != nil {
		o.problem("%v", err)
	}
	if e.trace {
		if err := writeSpansFile(e, *name, *seed, o.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	line, correct := result(e, o)
	report(out, o)
	fmt.Fprintln(out, line)
	if !correct {
		return 1
	}
	return 0
}

func writeSpansFile(e *env, name string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	fmt.Fprintf(e.out, "spans: %d written to %s\n", len(spans), path)
	return writeSpans(path, spans)
}

// result renders the final JSON line: every end-to-end metric (untraced
// runs) or every per-layer metric (traced runs), each with its unit.
func result(e *env, o *outcome) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	catalog, got := endToEnd, o.e2e
	if e.trace {
		catalog, got = perLayer, o.layer
	}
	metrics := make(map[string]value, len(catalog))
	for _, m := range catalog {
		v, ok := got[m.Name]
		if !ok && !e.trace {
			o.problem("metric %s not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problem("metric %s is %v", m.Name, v)
			v = 0
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	correct := len(o.problems) == 0 && o.failed == 0 && o.attempted > 0
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(o.attempted, 1), o.failed, metrics})
	if err != nil {
		panic(err) // every value is finite by construction
	}
	return string(b), correct
}

// report prints the human-readable summary before the JSON line.
func report(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "attempted %d failed %d error_ratio %.6g\n", o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	keys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "count %s = %d\n", k, o.counts[k])
	}
	for i, p := range o.problems {
		if i == 20 {
			fmt.Fprintf(w, "FAIL … %d more\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
}

// provenance stamps the machine, toolchain, source and seed of a result.
func provenance(digest, name string, seed int64, traced bool) string {
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit("."),
		"source":     "sha256:" + digest[:16],
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
	})
	return string(b)
}

// gitCommit reads HEAD without running git; checkouts that are not git
// repositories report "none" and are identified by the source digest.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(l, " "); ok && r == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories (build outputs, VCS metadata).
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// checkFingerprint compares the run's deterministic counts with the ones
// an earlier run of the same source and seed recorded, recording them if
// this is the first such run.
func checkFingerprint(path string, counts map[string]int64) error {
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]int64
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("determinism: reading %s: %v", path, err)
		}
		var diffs []string
		for k, v := range counts {
			if w, ok := want[k]; ok && w != v {
				diffs = append(diffs, k+"="+strconv.FormatInt(v, 10)+" (was "+strconv.FormatInt(w, 10)+")")
			}
		}
		sort.Strings(diffs)
		if len(diffs) > 0 {
			return fmt.Errorf("determinism: counts differ from an earlier run with this seed: %s", strings.Join(diffs, ", "))
		}
		return nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, _ := json.Marshal(counts)
	return os.WriteFile(path, b, 0o644)
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// memDelta holds allocation and GC counters, sampled around a phase.
type memDelta struct{ alloc, gc uint64 }

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.TotalAlloc, uint64(m.NumGC)}
}

// splitmix derives independent sub-seeds from the workload seed.
func splitmix(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}
