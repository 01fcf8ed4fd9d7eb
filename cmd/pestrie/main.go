// Command pestrie encodes points-to matrices into Pestrie persistent files
// and queries them.
//
// Usage:
//
//	pestrie encode -in pm.ptm -out pm.pes [-v2] [-random-order] [-merge-objects] [-j N]
//	pestrie info -in pm.pes [-j N]
//	pestrie query -in pm.pes -op isalias -p 3 -q 7
//	pestrie query -in pm.pes -op aliases|pointsto -p 3 [-at gen|head]
//	pestrie query -in pm.pes -op pointedby -o 5
//	pestrie delta -base pm.pes -new updated.ptm [-out pm.d000001.pesd]
//	pestrie compact -in pm.pes -out pm2.pes [-gen N] [-v2] [-j N]
//	pestrie serve -in pm.pes[,name=other.pes...] -addr :7171
//	pestrie serve -store-dir ./pes -mem-budget 64MiB -reload-interval 30s
//	pestrie serve -in pm.pes -shards 4 -addr :7171
//	pestrie coordinate -shards http://h1:7171,http://h2:7171 -addr :7170
//	pestrie bench-serve -addr http://host:7171 -in pm.pes -n 200
//	pestrie bench-serve -in pm.pes -shards 3 -tenants 4 -zipf 1.2
//
// serve answers the four Table-1 queries plus batches over HTTP/JSON (see
// internal/server); bench-serve replays a §7.1.1 base-pointer query mix
// against a running server and reports throughput and latency.
//
// serve -shards N spawns N shard servers on loopback listeners (sharing
// one store) and fronts them with a
// coordinator on -addr: queries hash-partition over the pointer-ID space,
// answers dedup through an answer cache plus singleflight, and the reply
// is byte-identical to a single-process server at the same generation.
// coordinate fronts shard servers that are already running elsewhere.
// bench-serve -shards N spawns such a tier itself and drives it — with
// -tenants and -zipf for a skewed multi-tenant stream, and -min-hit-ratio
// to gate on the answer cache actually absorbing the repeats.
//
// Every backend resolves through one index store (see internal/store).
// Plain -in files are decoded at startup and pinned there. With
// -store-dir, -mem-budget, or -reload-interval they are catalogued by path
// instead: .pes files decode lazily on first query, cold indexes are
// evicted to stay under the memory budget, and rewritten files are
// hot-swapped in without a restart.
// -pprof mounts net/http/pprof for profiling the eviction hot path.
//
// encode -v2 writes the zero-copy PES2 format: info, query, and serve
// memory-map such files and answer queries straight off the mapping
// instead of decoding them. Replace a served PES2 file only by rename.
//
// delta diffs the facts a base (plus any delta chain next to it) currently
// serves against an updated matrix and writes the difference as the next
// stamped .pesd segment (see internal/delta and FORMATS.md); a serving
// store picks the segment up on its next refresh without re-decoding the
// base. query -at pins a query to one generation of the chain; info prints
// the chain. compact folds base+chain back into a fresh standalone file,
// byte-identical to encoding the same facts from scratch.
//
// Matrix files (.ptm) are produced by cmd/ptagen.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pestrie"
	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/perf"
	"pestrie/internal/server"
	"pestrie/internal/store"
	"pestrie/internal/synth"
)

// budgetString renders a store budget for the startup banner.
func budgetString(n int64) string {
	if n <= 0 {
		return "unlimited"
	}
	return perf.Bytes(n)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = encode(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "query":
		err = query(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "delta":
		err = deltaCmd(os.Args[2:])
	case "compact":
		err = compact(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	case "coordinate":
		err = coordinate(os.Args[2:])
	case "bench-serve":
		err = benchServe(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pestrie:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pestrie <encode|info|query|verify|delta|compact|serve|coordinate|bench-serve> [flags]")
	os.Exit(2)
}

// parseInSpec parses the -in specification: a comma-separated list of
// [name=]path.pes entries. An unnamed entry takes its file stem as backend
// name; a single unnamed entry is also reachable as "default" (the
// implicit backend of one-index deployments).
func parseInSpec(spec string) ([]store.Spec, error) {
	entries := strings.Split(spec, ",")
	out := make([]store.Spec, 0, len(entries))
	for _, e := range entries {
		name, path := "", e
		if i := strings.IndexByte(e, '='); i >= 0 {
			name, path = e[:i], e[i+1:]
		}
		if path == "" {
			return nil, fmt.Errorf("serve: empty path in -in entry %q", e)
		}
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			if len(entries) == 1 {
				name = "default"
			}
		}
		out = append(out, store.Spec{Name: name, Path: path})
	}
	return out, nil
}

// shardTier is an in-process shard fleet: n servers on loopback listeners
// fronted by one Coordinator. serve -shards and bench-serve -shards both
// build one; coordinate fronts external shards instead.
type shardTier struct {
	servers []*server.Server
	urls    []string
	coord   *server.Coordinator
	cleanup func()
}

// startShards puts each server on its own loopback listener and returns
// the tier with a coordinator built over the shard URLs.
func startShards(servers []*server.Server, copts server.CoordOptions) (*shardTier, error) {
	t := &shardTier{servers: servers}
	var listeners []net.Listener
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Shutdown(ctx)
		}
		for _, l := range listeners {
			l.Close()
		}
	}
	for _, s := range servers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, err
		}
		listeners = append(listeners, l)
		t.urls = append(t.urls, "http://"+l.Addr().String())
		go s.Serve(l)
	}
	copts.Shards = t.urls
	coord, err := server.NewCoordinator(copts)
	if err != nil {
		stop()
		return nil, err
	}
	t.coord = coord
	t.cleanup = stop
	return t, nil
}

// buildServers constructs n identical servers over one shared store. With
// lazy set, specs and dir files are catalogued by path and decode on
// first query, under the store's budget and hot-swap; otherwise every
// spec is decoded now (each distinct path once) and registered as a
// pinned entry. Either way lazy loads, eviction and swaps happen once for
// the whole tier, and core.Index is immutable, so shards share it safely.
// Failures name the offending name=path entry. The caller closes the
// returned store.
func buildServers(n int, specs []store.Spec, dir string, opts server.Options, sopts store.Options, lazy bool) ([]*server.Server, *store.Store, error) {
	st := store.New(sopts)
	decoded := map[string]*core.Index{}
	for _, sp := range specs {
		var err error
		if lazy {
			err = st.Add(sp.Name, sp.Path)
		} else {
			ix := decoded[sp.Path]
			if ix == nil {
				ix, err = pestrie.LoadFile(sp.Path)
				decoded[sp.Path] = ix
			}
			if err == nil {
				err = st.AddIndex(sp.Name, ix)
			}
		}
		if err != nil {
			st.Close()
			return nil, nil, fmt.Errorf("serve: -in entry %s=%s: %w", sp.Name, sp.Path, err)
		}
	}
	if dir != "" {
		if _, err := st.AddDir(dir); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	opts.Store = st
	servers := make([]*server.Server, n)
	for i := range servers {
		servers[i] = server.New(opts)
	}
	return servers, st, nil
}

// serveLoop runs listenAndServe until it returns or SIGINT/SIGTERM, then
// drains gracefully via shutdown.
func serveLoop(listenAndServe func() error, shutdown func(context.Context) error) error {
	done := make(chan error, 1)
	go func() { done <- listenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case <-sig:
		fmt.Println("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			return err
		}
		<-done
		return nil
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "", "persistent files to serve: [name=]file.pes, comma-separated")
	addr := fs.String("addr", ":7171", "listen address")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	workers := fs.Int("workers", 0, "batch worker-pool size (0 = GOMAXPROCS)")
	maxBatch := fs.Int("max-batch", 0, "max queries per batch request (0 = 65536)")
	storeDir := fs.String("store-dir", "", "directory of .pes files served lazily through the index store")
	memBudget := fs.String("mem-budget", "", "decoded-index memory budget for the store, e.g. 64MiB (empty = unlimited)")
	reload := fs.Duration("reload-interval", 0, "checksum poll period for hot-swapping rewritten files (0 = off)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	shards := fs.Int("shards", 0, "spawn N loopback shard servers behind a coordinator on -addr (0 = single process)")
	cacheBudget := fs.String("cache-budget", "64MiB", "coordinator answer-cache budget (0 disables)")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Second, "coordinator per-shard sub-request deadline")
	genTTL := fs.Duration("gen-ttl", 2*time.Second, "coordinator generation-watermark revalidation period")
	fs.Parse(args)
	useStore := *storeDir != "" || *memBudget != "" || *reload > 0
	if *in == "" && !useStore {
		return fmt.Errorf("serve needs -in or -store-dir")
	}
	opts := server.Options{
		RequestTimeout: *timeout,
		BatchWorkers:   *workers,
		MaxBatch:       *maxBatch,
		EnablePprof:    *pprofOn,
	}
	var sopts store.Options
	if useStore {
		var budget int64
		if *memBudget != "" {
			var err error
			if budget, err = store.ParseBytes(*memBudget); err != nil {
				return err
			}
		}
		sopts = store.Options{MemBudget: budget, ReloadInterval: *reload}
	}
	n := *shards
	if n < 0 {
		return fmt.Errorf("serve: -shards wants a non-negative count, got %d", n)
	}
	if n == 0 {
		n = 1
	}
	var specs []store.Spec
	if *in != "" {
		var err error
		if specs, err = parseInSpec(*in); err != nil {
			return err
		}
	}
	servers, st, err := buildServers(n, specs, *storeDir, opts, sopts, useStore)
	if err != nil {
		return err
	}
	defer st.Close()
	if useStore {
		names := st.Names()
		fmt.Printf("store: %d catalogued backends (budget %s, reload %s): %s\n",
			len(names), budgetString(sopts.MemBudget), *reload, strings.Join(names, " "))
	} else {
		for _, b := range servers[0].Backends() {
			fmt.Printf("backend %s: %d pointers, %d objects, %d groups, %d rectangles\n",
				b.Name, b.Pointers, b.Objects, b.Groups, b.Rectangles)
		}
	}
	if *pprofOn {
		fmt.Println("pprof mounted at /debug/pprof/")
	}

	if *shards == 0 {
		fmt.Printf("serving on %s (timeout %s)\n", *addr, *timeout)
		s := servers[0]
		return serveLoop(func() error { return s.ListenAndServe(*addr) }, s.Shutdown)
	}

	budget, err := store.ParseBytes(*cacheBudget)
	if err != nil {
		return fmt.Errorf("serve: -cache-budget: %w", err)
	}
	if budget == 0 {
		budget = -1 // explicit "0" means off; CoordOptions zero means default
	}
	tier, err := startShards(servers, server.CoordOptions{
		RequestTimeout: *timeout,
		ShardTimeout:   *shardTimeout,
		CacheBytes:     budget,
		MaxBatch:       *maxBatch,
		GenTTL:         *genTTL,
	})
	if err != nil {
		return err
	}
	defer tier.cleanup()
	fmt.Printf("shards: %s\n", strings.Join(tier.urls, " "))
	fmt.Printf("coordinating on %s (timeout %s, shard timeout %s, cache %s)\n",
		*addr, *timeout, *shardTimeout, *cacheBudget)
	return serveLoop(func() error { return tier.coord.ListenAndServe(*addr) }, tier.coord.Shutdown)
}

// coordinate fronts already-running shard servers with a coordinator.
func coordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	shards := fs.String("shards", "", "comma-separated shard base URLs (order is the hash partition)")
	addr := fs.String("addr", ":7170", "listen address")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Second, "per-shard sub-request deadline")
	cacheBudget := fs.String("cache-budget", "64MiB", "answer-cache budget (0 disables)")
	genTTL := fs.Duration("gen-ttl", 2*time.Second, "generation-watermark revalidation period")
	maxBatch := fs.Int("max-batch", 0, "max queries per batch request (0 = 65536)")
	fs.Parse(args)
	if *shards == "" {
		return fmt.Errorf("coordinate needs -shards")
	}
	urls := strings.Split(*shards, ",")
	for i, u := range urls {
		urls[i] = strings.TrimSpace(u)
		if urls[i] == "" {
			return fmt.Errorf("coordinate: empty URL in -shards")
		}
	}
	budget, err := store.ParseBytes(*cacheBudget)
	if err != nil {
		return fmt.Errorf("coordinate: -cache-budget: %w", err)
	}
	if budget == 0 {
		budget = -1
	}
	coord, err := server.NewCoordinator(server.CoordOptions{
		Shards:         urls,
		RequestTimeout: *timeout,
		ShardTimeout:   *shardTimeout,
		CacheBytes:     budget,
		MaxBatch:       *maxBatch,
		GenTTL:         *genTTL,
	})
	if err != nil {
		return err
	}
	fmt.Printf("coordinating %d shards on %s (timeout %s, shard timeout %s, cache %s)\n",
		len(urls), *addr, *timeout, *shardTimeout, *cacheBudget)
	return serveLoop(func() error { return coord.ListenAndServe(*addr) }, coord.Shutdown)
}

// parseMix parses "isalias=60,aliases=15,pointsto=15,pointedby=10".
func parseMix(spec string) (server.Mix, error) {
	m := server.Mix{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("bench-serve: bad -mix entry %q", part)
		}
		var w int
		if _, err := fmt.Sscanf(kv[1], "%d", &w); err != nil || w < 0 {
			return m, fmt.Errorf("bench-serve: bad -mix weight %q", part)
		}
		switch kv[0] {
		case "isalias":
			m.IsAlias = w
		case "aliases":
			m.Aliases = w
		case "pointsto":
			m.PointsTo = w
		case "pointedby":
			m.PointedBy = w
		default:
			return m, fmt.Errorf("bench-serve: unknown -mix op %q", kv[0])
		}
	}
	return m, nil
}

func benchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7171", "server base URL")
	in := fs.String("in", "", "persistent file the server loaded (query-population source)")
	backend := fs.String("backend", "", "backend name (empty for single-backend servers)")
	n := fs.Int("n", 200, "batch requests to send")
	batch := fs.Int("batch", 256, "queries per batch")
	conc := fs.Int("concurrency", 8, "in-flight requests")
	stride := fs.Int("stride", 10, "base-pointer stride (§7.1.1 population)")
	seed := fs.Int64("seed", 1, "query-stream seed")
	mixSpec := fs.String("mix", "", "query mix, e.g. isalias=60,aliases=15,pointsto=15,pointedby=10")
	shards := fs.Int("shards", 0, "spawn a loopback coordinator tier of N shards from -in and bench it (ignores -addr)")
	tenants := fs.Int("tenants", 0, "address batches round-robin to N tenant backends t0..tN-1 (registered when -shards spawns the tier)")
	zipfS := fs.Float64("zipf", 0, "zipfian exponent for argument skew (>1 enables; 0 = uniform)")
	minHitRatio := fs.Float64("min-hit-ratio", -1, "fail unless the coordinator answer-cache hit ratio reaches this (needs a coordinator target)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("bench-serve needs -in")
	}
	idx, err := pestrie.LoadFile(*in)
	if err != nil {
		return err
	}
	// The §7.1.1 query population: base pointers of loads and stores,
	// approximated by the stride sample over pointers with non-empty
	// points-to sets, recovered from the persistent image itself.
	pm := idx.RecoverMatrix()
	base := synth.BasePointers(pm, *stride)
	if len(base) == 0 {
		return fmt.Errorf("bench-serve: %s has no pointers with non-empty points-to sets", *in)
	}
	mix := server.DefaultMix
	if *mixSpec != "" {
		if mix, err = parseMix(*mixSpec); err != nil {
			return err
		}
	}
	var backends []string
	if *tenants > 1 {
		for i := 0; i < *tenants; i++ {
			backends = append(backends, fmt.Sprintf("t%d", i))
		}
	}
	target := strings.TrimSuffix(*addr, "/")
	if *shards > 0 {
		// Self-contained tier: N loopback shard servers all serving -in
		// (under every tenant name), fronted by a coordinator on another
		// loopback listener.
		names := backends
		if len(names) == 0 {
			names = []string{"default"}
		}
		var specs []store.Spec
		for _, name := range names {
			specs = append(specs, store.Spec{Name: name, Path: *in})
		}
		servers, st, err := buildServers(*shards, specs, "", server.Options{}, store.Options{}, false)
		if err != nil {
			return err
		}
		defer st.Close()
		tier, err := startShards(servers, server.CoordOptions{})
		if err != nil {
			return err
		}
		defer tier.cleanup()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go tier.coord.Serve(l)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			tier.coord.Shutdown(ctx)
		}()
		target = "http://" + l.Addr().String()
		fmt.Printf("spawned %d-shard tier (tenants %s) coordinated at %s\n",
			*shards, strings.Join(names, " "), target)
	}
	fmt.Printf("replaying %d×%d queries over %d base pointers against %s\n",
		*n, *batch, len(base), target)
	report, err := server.RunBench(context.Background(), server.BenchOptions{
		URL:         target,
		Backend:     *backend,
		Backends:    backends,
		Base:        base,
		NumObjects:  idx.NumObjects,
		Requests:    *n,
		BatchSize:   *batch,
		Concurrency: *conc,
		Seed:        *seed,
		Mix:         mix,
		ZipfS:       *zipfS,
	})
	if err != nil {
		return err
	}
	fmt.Println(report)
	// A coordinator target also reports its deduplication economics: the
	// answer-cache hit ratio, how the shard fan-out balanced, and the two
	// other dedup levels. Absence of the endpoint (a plain server) is not
	// an error unless -min-hit-ratio demanded a cache.
	cstats, err := server.FetchCoordStats(context.Background(), target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pestrie: coordinator stats unavailable: %v\n", err)
	} else if cstats != nil {
		fmt.Printf("cache: %.1f%% hit ratio (%d hits, %d misses, %s of %s, %d evictions)\n",
			100*cstats.Cache.HitRatio, cstats.Cache.Hits, cstats.Cache.Misses,
			perf.Bytes(cstats.Cache.Bytes), perf.Bytes(cstats.Cache.Budget), cstats.Cache.Evictions)
		fmt.Printf("dedup: %d intra-batch, %d singleflight joins\n",
			cstats.BatchDedup, cstats.SingleflightWaits)
		for i, sh := range cstats.Shards {
			fmt.Printf("shard %d %s: %d requests, %d queries, %d errors, p50=%s p99=%s\n",
				i, sh.URL, sh.Requests, sh.Queries, sh.Errors,
				time.Duration(sh.Latency.P50NS), time.Duration(sh.Latency.P99NS))
		}
	}
	if *minHitRatio >= 0 {
		if cstats == nil {
			return fmt.Errorf("bench-serve: -min-hit-ratio needs a coordinator target, %s has no /debug/coord", target)
		}
		if cstats.Cache.HitRatio < *minHitRatio {
			return fmt.Errorf("bench-serve: cache hit ratio %.3f below required %.3f",
				cstats.Cache.HitRatio, *minHitRatio)
		}
	}
	// Servers also expose refresh economics: how many times each
	// file-backed backend was fully decoded vs advanced by applying delta
	// segments, and what each path cost. Pinned (eager -in) backends never
	// load or refresh, so they have no line; a coordinator has no endpoint.
	stats, err := server.FetchStoreStats(context.Background(), target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pestrie: store stats unavailable: %v\n", err)
		return nil
	}
	if stats == nil {
		return nil
	}
	for _, e := range stats.Backends {
		if e.Static || (*backend != "" && e.Name != *backend) {
			continue
		}
		line := fmt.Sprintf("store %s: generation stamp %d, chain %d, loads=%d (p50=%s)",
			e.Name, e.Stamp, e.DeltaChain, e.Loads, time.Duration(e.LoadLatency.P50NS))
		if e.Applies > 0 {
			line += fmt.Sprintf(", delta applies=%d (p50=%s)", e.Applies, time.Duration(e.ApplyLatency.P50NS))
		}
		if e.ChainNote != "" {
			line += ", chain stops early: " + e.ChainNote
		}
		fmt.Println(line)
	}
	return nil
}

// readMatrixFile loads a .ptm matrix file.
func readMatrixFile(path string) (*pestrie.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pestrie.ReadMatrix(f)
}

// deltaCmd diffs the facts the base (plus its on-disk delta chain)
// currently serves against an updated matrix and writes the difference as
// the next stamped segment. The base file is never rewritten — a serving
// store applies the new segment on its next refresh.
func deltaCmd(args []string) error {
	fs := flag.NewFlagSet("delta", flag.ExitOnError)
	base := fs.String("base", "", "served base file (.pes) the segment chains onto")
	newPM := fs.String("new", "", "matrix file (.ptm) holding the updated facts")
	out := fs.String("out", "", "output segment path (default: the next stamp next to -base)")
	fs.Parse(args)
	if *base == "" || *newPM == "" {
		return fmt.Errorf("delta needs -base and -new")
	}
	chain, err := delta.LoadChain(*base)
	if err != nil {
		return err
	}
	if chain.Broken != "" {
		// Appending past a broken link would stamp a segment discovery can
		// never reach; make the operator clean up (or compact) first.
		return fmt.Errorf("delta: chain next to %s is broken (%s); remove the stale segments or compact first", *base, chain.Broken)
	}
	idx, err := pestrie.OpenFile(*base)
	if err != nil {
		return err
	}
	defer idx.Close()
	cur, err := delta.MatrixAt(idx, chain.Segs, chain.Head())
	if err != nil {
		return err
	}
	next, err := readMatrixFile(*newPM)
	if err != nil {
		return err
	}
	seg, err := delta.Diff(cur, next)
	if err != nil {
		return err
	}
	if seg == nil {
		fmt.Printf("no changes: generation %d of %s already holds the facts of %s\n",
			chain.Head(), *base, *newPM)
		return nil
	}
	seg.Gen = chain.Head() + 1
	seg.Parent = chain.Head()
	seg.BaseHint = chain.Hint
	path := *out
	if path == "" {
		path = delta.SegmentPath(*base, seg.Gen)
	}
	if err := delta.WriteSegmentFile(path, seg); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	adds, dels := seg.Counts()
	fmt.Printf("segment: %s (generation %d on %d, +%d -%d facts, %d pointers × %d objects, %s)\n",
		path, seg.Gen, seg.Parent, adds, dels, seg.NumPointers, seg.NumObjects, perf.Bytes(st.Size()))
	return nil
}

// compact folds a base and its delta chain back into a standalone
// persistent file. Because RecoverMatrix inverts the base exactly, replay
// is strict, and core.Build is deterministic, the output is byte-identical
// to encoding the same facts from scratch with the same options — which is
// what CI checks.
func compact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	in := fs.String("in", "", "base file (.pes) whose delta chain to fold in")
	out := fs.String("out", "", "output persistent file (.pes)")
	gen := fs.Uint64("gen", 0, "generation to compact through (0 = chain head)")
	mergeObjects := fs.Bool("merge-objects", false, "merge equivalent objects into shared origins")
	noPrune := fs.Bool("no-prune", false, "disable Theorem-2 rectangle pruning")
	v2 := fs.Bool("v2", false, "write the zero-copy PES2 format")
	jobs := fs.Int("j", 0, "construction worker count (0 = GOMAXPROCS); output is identical for any value")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("compact needs -in and -out")
	}
	chain, err := delta.LoadChain(*in)
	if err != nil {
		return err
	}
	if chain.Broken != "" {
		fmt.Fprintf(os.Stderr, "pestrie: warning: chain stops early: %s\n", chain.Broken)
	}
	g := *gen
	if g == 0 {
		g = chain.Head()
	}
	idx, err := pestrie.OpenFile(*in)
	if err != nil {
		return err
	}
	defer idx.Close()
	opts := &core.Options{MergeEquivalentObjects: *mergeObjects, DisablePruning: *noPrune, Workers: *jobs}
	var trie *pestrie.Trie
	var cerr error
	dur := perf.Time(func() { trie, cerr = delta.Compact(idx, chain.Segs, g, opts) })
	if cerr != nil {
		return cerr
	}
	format := "PES1"
	if *v2 {
		format = "PES2"
		if err := pestrie.WriteFileV2(trie.Index(), *out); err != nil {
			return err
		}
	} else if err := pestrie.WriteFile(trie, *out); err != nil {
		return err
	}
	folded := 0
	for _, s := range chain.Segs {
		if s.Gen <= g {
			folded++
		}
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("compacted %s through generation %d (%d segments folded) in %s\n", *in, g, folded, dur)
	fmt.Printf("file: %s (%s, %s)\n", *out, format, perf.Bytes(st.Size()))
	return nil
}

// verify recovers the full points-to matrix from a persistent file and
// checks it against the original matrix — an end-to-end losslessness check
// for the encoding pipeline.
func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	pes := fs.String("pes", "", "persistent file (.pes)")
	ptm := fs.String("ptm", "", "original matrix file (.ptm)")
	fs.Parse(args)
	if *pes == "" || *ptm == "" {
		return fmt.Errorf("verify needs -pes and -ptm")
	}
	idx, err := pestrie.LoadFile(*pes)
	if err != nil {
		return err
	}
	f, err := os.Open(*ptm)
	if err != nil {
		return err
	}
	pm, err := pestrie.ReadMatrix(f)
	f.Close()
	if err != nil {
		return err
	}
	var recovered *pestrie.Matrix
	dur := perf.Time(func() { recovered = idx.RecoverMatrix() })
	if !recovered.Equal(pm) {
		return fmt.Errorf("MISMATCH: %s does not losslessly encode %s", *pes, *ptm)
	}
	fmt.Printf("OK: %s losslessly encodes %s (%d facts, recovered in %s)\n",
		*pes, *ptm, pm.Edges(), dur)
	return nil
}

func encode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input matrix file (.ptm)")
	facts := fs.String("facts", "", "input text facts file (pointer object per line) instead of -in")
	out := fs.String("out", "", "output persistent file (.pes)")
	randomOrder := fs.Bool("random-order", false, "use a random object order instead of the hub-degree heuristic")
	seed := fs.Int64("seed", 1, "seed for -random-order")
	mergeObjects := fs.Bool("merge-objects", false, "merge equivalent objects into shared origins")
	noPrune := fs.Bool("no-prune", false, "disable Theorem-2 rectangle pruning")
	v2 := fs.Bool("v2", false, "write the zero-copy PES2 format (memory-mapped by readers; larger than PES1 but opens without a decode)")
	jobs := fs.Int("j", 0, "construction worker count (0 = GOMAXPROCS, 1 = sequential); output is identical for any value")
	fs.Parse(args)
	if (*in == "") == (*facts == "") || *out == "" {
		return fmt.Errorf("encode needs exactly one of -in/-facts, plus -out")
	}
	var pm *pestrie.Matrix
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		pm, err = pestrie.ReadMatrix(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(*facts)
		if err != nil {
			return err
		}
		fa, err := pestrie.ReadFactsText(f)
		f.Close()
		if err != nil {
			return err
		}
		pm = fa.PM
	}
	opts := &core.Options{MergeEquivalentObjects: *mergeObjects, DisablePruning: *noPrune, Workers: *jobs}
	if *randomOrder {
		opts.Order = rand.New(rand.NewSource(*seed)).Perm(pm.NumObjects)
	}
	var trie *pestrie.Trie
	dur := perf.Time(func() { trie = pestrie.Build(pm, opts) })
	format := "PES1"
	if *v2 {
		format = "PES2"
		if err := pestrie.WriteFileV2(trie.Index(), *out); err != nil {
			return err
		}
	} else if err := pestrie.WriteFile(trie, *out); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	s := trie.Stats()
	fmt.Printf("encoded %d pointers × %d objects in %s\n", pm.NumPointers, pm.NumObjects, dur)
	fmt.Printf("groups=%d tree-edges=%d cross-edges=%d rectangles=%d (pruned %d)\n",
		s.Groups, s.TreeEdges, s.CrossEdges, s.Rectangles, s.Pruned)
	fmt.Printf("file: %s (%s, %s)\n", *out, format, perf.Bytes(st.Size()))
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "persistent file (.pes)")
	jobs := fs.Int("j", 0, "decode worker count (0 = GOMAXPROCS, 1 = sequential)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info needs -in")
	}
	var idx *pestrie.Index
	var err error
	dur := perf.Time(func() { idx, err = core.OpenFileWith(*in, *jobs) })
	if err != nil {
		return err
	}
	defer idx.Close()
	format := "PES1"
	if idx.Mapped() {
		format = "PES2"
	}
	fmt.Printf("format=%s pointers=%d objects=%d groups=%d rectangles=%d\n",
		format, idx.NumPointers, idx.NumObjects, idx.NumGroups, idx.Rectangles())
	if idx.Mapped() {
		fmt.Printf("open time: %s, mapped zero-copy: %s\n", dur, perf.Bytes(idx.MemoryFootprint()))
	} else {
		fmt.Printf("decode time: %s, query structure: %s\n", dur, perf.Bytes(idx.MemoryFootprint()))
	}
	// Delta chain next to the base, if any: one line per segment plus the
	// head stamp queries would answer at.
	chain, err := delta.LoadChain(*in)
	if err != nil {
		return err
	}
	for i, seg := range chain.Segs {
		adds, dels := seg.Counts()
		fmt.Printf("delta %s: generation %d on %d, +%d -%d facts, %d pointers × %d objects\n",
			filepath.Base(chain.Paths[i]), seg.Gen, seg.Parent, adds, dels,
			seg.NumPointers, seg.NumObjects)
	}
	if len(chain.Segs) > 0 {
		fmt.Printf("chain: %d segments, head generation %d\n", len(chain.Segs), chain.Head())
	}
	if chain.Broken != "" {
		fmt.Printf("chain stops early: %s\n", chain.Broken)
	}
	return nil
}

func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "persistent file (.pes)")
	op := fs.String("op", "isalias", "isalias | aliases | pointsto | pointedby")
	p := fs.Int("p", -1, "pointer ID")
	q := fs.Int("q", -1, "second pointer ID (isalias)")
	o := fs.Int("o", -1, "object ID (pointedby)")
	at := fs.String("at", "", `generation to answer at: a stamp, or "head" for the newest delta segment (default: the base alone, ignoring any chain)`)
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("query needs -in")
	}
	var idx delta.Index
	if *at == "" {
		base, err := pestrie.OpenFile(*in)
		if err != nil {
			return err
		}
		defer base.Close()
		idx = base
	} else {
		v, chain, err := delta.Open(*in)
		if err != nil {
			return err
		}
		defer v.Close()
		if chain.Broken != "" {
			fmt.Fprintf(os.Stderr, "pestrie: warning: chain stops early: %s\n", chain.Broken)
		}
		sn := v.Head()
		if *at != "head" {
			g, err := strconv.ParseUint(*at, 10, 64)
			if err != nil {
				return fmt.Errorf("query: -at wants a generation stamp or \"head\", got %q", *at)
			}
			if sn = v.At(g); sn == nil {
				return fmt.Errorf("query: generation %d predates the base (generation %d)", g, v.BaseGeneration())
			}
		}
		fmt.Printf("at generation %d (chain of %d)\n", sn.Generation(), v.Chain())
		idx = sn
	}
	printList := func(xs []int) {
		sort.Ints(xs)
		fmt.Println(len(xs), "results:", xs)
	}
	// Out-of-range IDs are hard errors, not empty result sets: a silent
	// empty answer for pointer 10^6 against a 10^3-pointer file hides the
	// mismatch between the file and whatever produced the ID.
	checkPointer := func(name string, v int) error {
		if v >= idx.Pointers() {
			return fmt.Errorf("-%s %d out of range: %s has pointers 0..%d", name, v, *in, idx.Pointers()-1)
		}
		return nil
	}
	switch *op {
	case "isalias":
		if *p < 0 || *q < 0 {
			return fmt.Errorf("isalias needs -p and -q")
		}
		if err := checkPointer("p", *p); err != nil {
			return err
		}
		if err := checkPointer("q", *q); err != nil {
			return err
		}
		fmt.Println(idx.IsAlias(*p, *q))
	case "aliases":
		if *p < 0 {
			return fmt.Errorf("aliases needs -p")
		}
		if err := checkPointer("p", *p); err != nil {
			return err
		}
		printList(idx.ListAliases(*p))
	case "pointsto":
		if *p < 0 {
			return fmt.Errorf("pointsto needs -p")
		}
		if err := checkPointer("p", *p); err != nil {
			return err
		}
		printList(idx.ListPointsTo(*p))
	case "pointedby":
		if *o < 0 {
			return fmt.Errorf("pointedby needs -o")
		}
		if *o >= idx.Objects() {
			return fmt.Errorf("-o %d out of range: %s has objects 0..%d", *o, *in, idx.Objects()-1)
		}
		printList(idx.ListPointedBy(*o))
	default:
		return fmt.Errorf("unknown op %q", *op)
	}
	return nil
}
