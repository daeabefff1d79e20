package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"accelwall/internal/sweep"
)

// allWorkloads is the benchmark's set of traffic mixes, by name.
var allWorkloads = map[string]*workload{
	"serve-warm": {
		name: "serve-warm", tail: 95, conns: 2,
		peers:  []peerSpec{{gomaxprocs: 2}},
		plan:   serveWarmPlan,
		traced: traceServeWarm, probe: 2000,
	},
	"explore-cold": {
		name: "explore-cold", tail: 95, conns: 1,
		peers:  []peerSpec{{gomaxprocs: 2}},
		plan:   exploreColdPlan,
		traced: traceExploreCold, probe: 18,
	},
	"wall-bands": {
		name: "wall-bands", tail: 90, conns: 1,
		peers:  []peerSpec{{gomaxprocs: 2}},
		plan:   wallBandsPlan,
		traced: traceWallBands, probe: 6,
	},
	"jobs-replicated": {
		name: "jobs-replicated", tail: 75, conns: 1,
		peers: []peerSpec{
			{gomaxprocs: 1, jobs: true, args: clusterArgs},
			{gomaxprocs: 1, jobs: true, args: clusterArgs},
		},
		plan:   jobsPlan,
		traced: traceJobs, probe: 3,
	},
}

// clusterArgs start one peer of the two-peer jobs cluster: one engine worker
// per peer (each has one core), and no anti-entropy ticks inside the window
// (the repair loop would garbage-collect the replicas the premise check
// counts, and its period is comparable to the window).
var clusterArgs = []string{"-workers", "1", "-peers", "{peers}", "-self", "{self}", "-repair-interval", "1h"}

func workloadNames() []string {
	names := make([]string, 0, len(allWorkloads))
	for k := range allWorkloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// request returns an op body that sends one request to the first peer.
func request(method, path string, body []byte) func(ctx context.Context, f *fleet) (int, []byte, error) {
	return func(ctx context.Context, f *fleet) (int, []byte, error) {
		return f.do(ctx, 0, method, path, body)
	}
}

// warmAll sends each op once and fails on any non-200 answer.
func warmAll(ctx context.Context, f *fleet, ops []op) error {
	for _, o := range ops {
		status, body, err := o.do(ctx, f)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %.200s", o.family, o.refKey, status, body)
		}
	}
	return nil
}

// ---- serve-warm ------------------------------------------------------------

// serveItem is one member of the serve-warm working set.
type serveItem struct {
	op           op
	method, path string
	body         []byte
	ref          func(ctx context.Context) ([]byte, error)
}

// serveWeights are the serve-warm mix weights per route family. Served
// latencies fall in three modes: ~0.3 ms (cached sweep bodies, cmos, csr,
// table5), ~0.6 ms (memo hits re-encoded per call, case studies) and
// ~1.5 ms (projection, recomputed per call). With 70/22/8 the median sits
// at the 71st percentile of the fast mode and p95 at the 37th of the slow
// one, never in a gap between modes. (p99, at the slow mode's 87th
// percentile, read 2.9–5.1 ms across ten seeds on a noisy 2-vCPU host.)
var serveWeights = []struct {
	family string
	weight int
}{
	{"sweep", 34}, {"cmos", 16}, {"csr", 10}, {"experiments", 10},
	{"casestudy", 8}, {"uncertainty", 7}, {"search", 7},
	{"projection", 8},
}

// serveWarmSet builds the working set: every item fits the daemon's caches
// (6 of 32 engines, 6 of 64 cached sweep bodies, 4 of 64 uncertainty runs,
// 3 of 64 searches), so no op in the window compiles or simulates.
func serveWarmSet(seed int64) map[string][]serveItem {
	set := make(map[string][]serveItem)
	add := func(family, key, method, path string, body []byte, ref func(context.Context) ([]byte, error)) {
		set[family] = append(set[family], serveItem{
			op:     op{family: family, refKey: key, do: request(method, path, body)},
			method: method, path: path, body: body,
			ref: ref,
		})
	}
	for _, s := range []struct {
		w      string
		preset string
	}{{"AES", "reduced"}, {"BFS", "full"}, {"GMM", "reduced"}, {"KNN", "full"}, {"MDY", "reduced"}, {"NWN", "full"}} {
		grid := sweep.Reduced()
		if s.preset == "full" {
			grid = sweep.Default()
		}
		add("sweep", "sweep:"+s.w+":"+s.preset, "POST", "/v1/sweep",
			mustJSON(map[string]string{"workload": s.w, "preset": s.preset}),
			func(ctx context.Context) ([]byte, error) { return refSweep(ctx, s.w, 0, grid) })
	}
	for k := int64(0); k < 4; k++ {
		u := uncertaintySpec{Replicates: 64, Seed: 1000*seed + k, CorpusSeed: 1, CMOSJitter: 0.02}
		add("uncertainty", fmt.Sprintf("uncertainty:%d", u.Seed), "POST", "/v1/uncertainty", mustJSON(u),
			func(ctx context.Context) ([]byte, error) { return refUncertainty(ctx, u) })
	}
	for _, w := range []string{"RBM", "SAD", "SRT"} {
		// A fixed seed: the frontier's size, and so the cost of
		// re-encoding it, must not depend on the run's seed.
		s := searchSpec{Workload: w, Population: 24, Generations: 12, Seed: 1}
		add("search", "search:"+w, "POST", "/v1/search", mustJSON(s),
			func(ctx context.Context) ([]byte, error) { return refSearch(ctx, s) })
	}
	for _, name := range []string{"bitcoin", "videodec", "gpu", "fpgacnn"} {
		add("casestudy", "casestudy:"+name, "GET", "/v1/casestudy/"+name, nil,
			func(context.Context) ([]byte, error) { return refCaseStudy(name) })
	}
	add("experiments", "experiments:table5", "GET", "/v1/experiments/table5", nil,
		func(context.Context) ([]byte, error) { return refExperiment("table5") })
	add("cmos", "cmos:all", "GET", "/v1/cmos", nil, func(context.Context) ([]byte, error) { return refCMOS(0) })
	add("cmos", "cmos:7.5", "GET", "/v1/cmos?node=7.5", nil, func(context.Context) ([]byte, error) { return refCMOS(7.5) })
	add("projection", "projection", "GET", "/v1/projection", nil, func(context.Context) ([]byte, error) { return refProjection() })
	add("csr", "csr", "POST", "/v1/csr", []byte(csrBody), func(context.Context) ([]byte, error) { return refCSR() })
	return set
}

// serveMix returns the mix sequence: weight×rounds ops of each family,
// its items taken in turn, in a seeded order. Every seed gets exactly the
// same composition; only the order differs.
func serveMix(set map[string][]serveItem, seed int64, rounds int) []serveItem {
	var seq []serveItem
	for _, w := range serveWeights {
		items := set[w.family]
		for k := 0; k < w.weight*rounds; k++ {
			seq = append(seq, items[k%len(items)])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	return seq
}

func serveWarmPlan(seed int64) (*plan, error) {
	set := serveWarmSet(seed)
	seq := serveMix(set, seed, 120) // 12000 ops; 120 divides evenly over every family's items
	refs := make(map[string]func(context.Context) ([]byte, error))
	var all []op
	for _, items := range set {
		for _, it := range items {
			refs[it.op.refKey] = it.ref
			all = append(all, it.op)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].refKey < all[b].refKey })
	return &plan{
		op:        func(i int) op { return seq[i%len(seq)].op },
		cycle:     1,
		digestOps: 1 << 62, // the whole working set
		warm: func(ctx context.Context, f *fleet) error {
			// Twice: the first pass fills every cache, the second takes
			// the warm path once so lazy serving state is built too.
			if err := warmAll(ctx, f, all); err != nil {
				return err
			}
			return warmAll(ctx, f, all)
		},
		ref: func(ctx context.Context, key string) ([]byte, error) {
			r, ok := refs[key]
			if !ok {
				return nil, fmt.Errorf("unknown key %q", key)
			}
			return r(ctx)
		},
		premise: func(d delta, s *windowStats) error {
			for _, c := range []struct {
				path []string
				name string
			}{
				{[]string{"engine_cache", "compiles"}, "compiles"},
				{[]string{"engine_cache", "misses"}, "engine-cache misses"},
				{[]string{"sweep_response_cache", "misses"}, "response-cache misses"},
				{[]string{"uncertainty_cache", "runs"}, "uncertainty-cache misses"},
				{[]string{"search_cache", "runs"}, "search-cache misses"},
				{[]string{"study_cache", "fits"}, "study fits"},
			} {
				if v := d.of(0, c.path...); v != 0 {
					return fmt.Errorf("%s in the window: %g, want 0", c.name, v)
				}
			}
			return nil
		},
	}, nil
}

// ---- explore-cold ----------------------------------------------------------

// coldKernels are the Table IV kernels of the explore-cold cycle with their
// default problem sizes. Each enters the cycle at nine sizes around its
// default, so every op costs about what a default-size request costs.
var coldKernels = []struct {
	name string
	def  int
}{
	{"BFS", 64}, {"MDY", 16}, {"KNN", 64}, {"NWN", 12}, {"RBM", 16}, {"RED", 256},
	{"SAD", 16}, {"SRT", 32}, {"SMV", 32}, {"SSP", 32}, {"TRD", 128},
}

// coldKey is one (workload, size) engine key.
type coldKey struct {
	workload string
	size     int
}

func (k coldKey) String() string { return k.workload + "@" + strconv.Itoa(k.size) }

// coldKeys returns the 99 cold keys, kernel by kernel.
func coldKeys() []coldKey {
	var keys []coldKey
	for _, k := range coldKernels {
		for d := -4; d <= 4; d++ {
			keys = append(keys, coldKey{k.name, k.def + d})
		}
	}
	return keys
}

// coldCycle returns the 99 explore-cold keys in a seeded order. The set is
// fixed and only the order depends on the seed, so every run does the same
// work.
func coldCycle(seed int64) []coldKey {
	keys := coldKeys()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	return keys
}

const (
	engineLRU   = 32 // accelwalld -cache default
	responseLRU = 64 // the daemon's marshaled sweep-body LRU
	searchLRU   = 64 // the daemon's search memo
	searchEvery = 9  // every ninth explore-cold op is a search
	// checkedCycles is how many cycles of the explore-cold stream are
	// checked against the caches. The engine and body streams repeat every
	// cycle and search seeds grow with it, so three cycles hold every
	// repeat distance a longer stream has.
	checkedCycles = 3
)

// coldSearch is the search of explore-cold op i on key k. The key's place
// in the cycle is fixed, but the seed is the number of the op's cycle, so a
// search never repeats within a run (a cycle holds 11 searches and the
// daemon memoises 64) while every run does the same searches in the same
// order.
func coldSearch(k coldKey, i, cycle int) searchSpec {
	return searchSpec{Workload: k.workload, Size: k.size, Population: 48, Generations: 24, Seed: int64(i/cycle + 1)}
}

// isColdSearch reports whether explore-cold op i is a search.
func isColdSearch(i, cycle int) bool { return i%cycle%searchEvery == searchEvery-1 }

// coldStreams returns the cache keys of the first n explore-cold ops, one
// stream per daemon cache: engines (every op), sweep bodies (sweeps) and
// search results (searches).
func coldStreams(keys []coldKey, n int) (engines, bodies, searches []string) {
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		engines = append(engines, k.String())
		if isColdSearch(i, len(keys)) {
			searches = append(searches, fmt.Sprintf("%s:%d", k, coldSearch(k, i, len(keys)).Seed))
		} else {
			bodies = append(bodies, k.String())
		}
	}
	return engines, bodies, searches
}

// checkColdStreams rejects an explore-cold cycle under which a daemon cache
// could serve an op.
func checkColdStreams(keys []coldKey) error {
	engines, bodies, searches := coldStreams(keys, checkedCycles*len(keys))
	for _, c := range []struct {
		name string
		keys []string
		lru  int
	}{{"engine cache", engines, engineLRU}, {"sweep-body cache", bodies, responseLRU}, {"search memo", searches, searchLRU}} {
		if err := checkStream(c.keys, c.lru); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

func exploreColdPlan(seed int64) (*plan, error) {
	keys := coldCycle(seed)
	if err := checkColdStreams(keys); err != nil {
		return nil, err
	}
	full := sweep.Default()
	searches := sync.Map{} // refKey -> searchSpec
	opAt := func(i int) op {
		k := keys[i%len(keys)]
		if isColdSearch(i, len(keys)) {
			s := coldSearch(k, i, len(keys))
			key := fmt.Sprintf("search:%s:%d", k, s.Seed)
			searches.Store(key, s)
			return op{family: "search", refKey: key, do: request("POST", "/v1/search", mustJSON(s))}
		}
		body := mustJSON(map[string]any{"workload": k.workload, "size": k.size, "preset": "full"})
		return op{family: "sweep", refKey: "sweep:" + k.String(), do: request("POST", "/v1/sweep", body)}
	}
	sweeps := make(map[string]coldKey, len(keys))
	for _, k := range keys {
		sweeps["sweep:"+k.String()] = k
	}
	// Warm-up keys sit outside the cycle (size 0 is each kernel's default,
	// a distinct engine key from any explicit size).
	var warm []op
	for _, k := range coldKernels[:6] {
		body := mustJSON(map[string]any{"workload": k.name, "preset": "full"})
		warm = append(warm, op{family: "sweep", refKey: "warm:" + k.name, do: request("POST", "/v1/sweep", body)})
	}
	return &plan{
		op:        opAt,
		cycle:     len(keys),
		digestOps: len(keys),
		warm:      func(ctx context.Context, f *fleet) error { return warmAll(ctx, f, warm) },
		ref: func(ctx context.Context, key string) ([]byte, error) {
			if s, ok := searches.Load(key); ok {
				return refSearch(ctx, s.(searchSpec))
			}
			k, ok := sweeps[key]
			if !ok {
				return nil, fmt.Errorf("unknown key %q", key)
			}
			return refSweep(ctx, k.workload, k.size, full)
		},
		premise: func(d delta, s *windowStats) error {
			var searchOps int
			for i := 0; i < s.ops; i++ {
				if isColdSearch(i, len(keys)) {
					searchOps++
				}
			}
			for _, c := range []struct {
				path []string
				name string
				want int
			}{
				{[]string{"engine_cache", "hits"}, "engine-cache hits", 0},
				{[]string{"sweep_response_cache", "hits"}, "response-cache hits", 0},
				{[]string{"search_cache", "hits"}, "search-memo hits", 0},
				{[]string{"engine_cache", "compiles"}, "compiles (one per op)", s.ops},
				{[]string{"search_cache", "runs"}, "search runs (one per search op)", searchOps},
			} {
				if v := d.of(0, c.path...); int(v) != c.want {
					return fmt.Errorf("%s in the window: %g, want %d", c.name, v, c.want)
				}
			}
			return nil
		},
	}, nil
}

// ---- wall-bands -------------------------------------------------------------

// wallReplicates is the replicate count of one wall-bands op: large enough
// that replicates dominate the per-op corpus fit (the traced run checks
// it), small enough that a window holds ~25 samples beyond its p90.
const wallReplicates = 32

// wallOp is the i-th wall-bands request: a fresh replicate seed per op, so
// every op misses the uncertainty cache, over three corpus seeds in turn.
func wallOp(seed int64, i int) uncertaintySpec {
	return uncertaintySpec{Replicates: wallReplicates, Seed: seed<<32 | int64(i+1), CorpusSeed: int64(i%3 + 1), CMOSJitter: 0.03}
}

func wallBandsPlan(seed int64) (*plan, error) {
	specs := sync.Map{} // refKey -> uncertaintySpec
	mk := func(u uncertaintySpec) op {
		key := fmt.Sprintf("uncertainty:%d:%d", u.CorpusSeed, u.Seed)
		specs.Store(key, u)
		return op{family: "uncertainty", refKey: key, do: request("POST", "/v1/uncertainty", mustJSON(u))}
	}
	return &plan{
		op:        func(i int) op { return mk(wallOp(seed, i)) },
		cycle:     1,
		digestOps: 16,
		warm: func(ctx context.Context, f *fleet) error {
			var warm []op
			for k := 0; k < 3; k++ {
				u := wallOp(seed, k)
				u.Seed = warmSeed(seed, k)
				warm = append(warm, mk(u))
			}
			return warmAll(ctx, f, warm)
		},
		ref: func(ctx context.Context, key string) ([]byte, error) {
			u, ok := specs.Load(key)
			if !ok {
				return nil, fmt.Errorf("unknown key %q", key)
			}
			return refUncertainty(ctx, u.(uncertaintySpec))
		},
		premise: func(d delta, s *windowStats) error {
			if v := d.of(0, "uncertainty_cache", "runs"); int(v) != s.ops {
				return fmt.Errorf("uncertainty-cache misses in the window: %g, want one per op (%d)", v, s.ops)
			}
			if v := d.of(0, "uncertainty_cache", "hits"); v != 0 {
				return fmt.Errorf("uncertainty-cache hits in the window: %g, want 0", v)
			}
			return nil
		},
	}, nil
}

// warmSeed is the k-th warm-up seed of a run: op i of the run uses
// seed<<32 | i+1, and a window never reaches 2^31 ops.
func warmSeed(seed int64, k int) int64 { return seed<<32 | int64(1<<31+k) }
