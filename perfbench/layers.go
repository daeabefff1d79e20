package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"time"

	"accelwall/internal/aladdin"
	"accelwall/internal/budget"
	"accelwall/internal/casestudy"
	"accelwall/internal/checkpoint"
	"accelwall/internal/chipdb"
	"accelwall/internal/cluster"
	"accelwall/internal/core"
	"accelwall/internal/dfg"
	"accelwall/internal/gains"
	"accelwall/internal/montecarlo"
	"accelwall/internal/search"
	"accelwall/internal/server"
	"accelwall/internal/sweep"
)

// The four in-process replays of the traced run, one per workload. Each op
// makes the calls the daemon makes for the same request, with a span
// around each layer call; layers adds the measurements spans cannot give
// (allocations, pool efficiency at 1 and 2 workers, codec and disk costs).

// ---- serve-warm ------------------------------------------------------------

// serveRequest replays one working-set item through the handler.
func serveRequest(h http.Handler, it serveItem) error {
	var body io.Reader
	if it.body != nil {
		body = bytes.NewReader(it.body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(it.method, it.path, body))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", it.method, it.path, rec.Code)
	}
	return nil
}

// handlerMetrics reads the in-process server's /v1/metrics tree.
func handlerMetrics(h http.Handler) (tree, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	var t tree
	if err := json.Unmarshal(rec.Body.Bytes(), &t); err != nil {
		return nil, err
	}
	return t, nil
}

func traceServeWarm(ctx context.Context, o options, dir string) (*replay, error) {
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	set := serveWarmSet(o.seed)
	seq := serveMix(set, o.seed, 120)
	for pass := 0; pass < 2; pass++ {
		for _, f := range serveFamilies {
			for _, it := range set[f] {
				if err := serveRequest(h, it); err != nil {
					srv.Close()
					return nil, err
				}
			}
		}
	}
	before, err := handlerMetrics(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &replay{
		op: func(ctx context.Context, t *tracer, i int, root int32) error {
			it := seq[i%len(seq)]
			return t.span("server.handler."+it.op.family, root, int32(i), func(int32) error { return serveRequest(h, it) })
		},
		layers: func(ctx context.Context, t *tracer, m map[string]float64) error {
			after, err := handlerMetrics(h)
			if err != nil {
				return err
			}
			d := delta{[]tree{before}, []tree{after}}
			m["server.respcache_hit_ratio"] = ratio(d.of(0, "sweep_response_cache", "hits"), d.of(0, "sweep_response_cache", "misses"))
			m["server.engine_hit_ratio"] = ratio(d.of(0, "engine_cache", "hits"), d.of(0, "engine_cache", "misses"))
			m["server.sheds"] = d.of(0, "overload", "shed_429") + d.of(0, "overload", "shed_503")
			for _, f := range serveFamilies {
				m["server.handler_us."+f] = meanOf(t.durs("server.handler."+f), time.Microsecond)
				const reps = 20
				n, _, err := allocs(func() error {
					for k := 0; k < reps; k++ {
						for _, it := range set[f] {
							if err := serveRequest(h, it); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				m["server.handler_allocs."+f] = float64(n) / float64(reps*len(set[f]))
			}
			tr, err := transportMicros(ctx, h, seq[:min(len(seq), 600)])
			if err != nil {
				return err
			}
			m["server.transport_us"] = tr
			return encodeCosts(ctx, m)
		},
		close: srv.Close,
	}, nil
}

// ratio is hits/(hits+misses), 0 when there were none.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// transportMicros is the mean socket time of items over one keep-alive
// loopback connection minus their mean in-process handler time.
func transportMicros(ctx context.Context, h http.Handler, items []serveItem) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
		close(done)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	f := &fleet{peers: []*daemon{{url: "http://" + ln.Addr().String()}}, client: newClient(1)}
	defer f.client.CloseIdleConnections()
	var sock, handler time.Duration
	for _, it := range items {
		t0 := time.Now()
		if err := serveRequest(h, it); err != nil {
			return 0, err
		}
		t1 := time.Now()
		status, _, err := f.do(ctx, 0, it.method, it.path, it.body)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("%s %s over the socket: status %d", it.method, it.path, status)
		}
		handler += t1.Sub(t0)
		sock += time.Since(t1)
	}
	return float64(sock-handler) / float64(len(items)) / float64(time.Microsecond), nil
}

// encodeCosts times the core codecs on one response of each kind.
func encodeCosts(ctx context.Context, m map[string]float64) error {
	values := make(map[string]any)
	g, err := buildGraph("AES", 0)
	if err != nil {
		return err
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		return err
	}
	pts, err := eng.RunContext(ctx, sweep.Reduced(), generatorProcs)
	if err != nil {
		return err
	}
	objective, _ := core.ParseObjective("")
	resp := sweepResponse{Workload: "AES", Objective: core.ObjectiveName(objective), Evaluated: len(pts), Cached: eng.CachedPoints()}
	resp.Frontier = core.NewFrontierJSON(sweep.DesignFrontier(pts))
	values["sweep"] = resp
	mc, err := montecarlo.RunContext(ctx, uncertaintySpec{Replicates: 64, Seed: 1, CorpusSeed: 1, CMOSJitter: 0.02}.config())
	if err != nil {
		return err
	}
	values["uncertainty"] = core.NewUncertaintyJSON(mc)
	s := searchSpec{Workload: "AES", Population: 24, Generations: 12, Seed: 1}
	res, err := search.RunContext(ctx, eng, s.config())
	if err != nil {
		return err
	}
	values["search"] = core.NewSearchJSON(s.Workload, s.config(), res)
	cs, err := core.CaseStudy("gpu")
	if err != nil {
		return err
	}
	values["casestudy"] = cs
	for _, k := range encodeKinds {
		const reps = 100
		var n int
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			b, err := encodeBody(values[k])
			if err != nil {
				return err
			}
			n = len(b)
		}
		m["core.encode_us."+k] = float64(time.Since(t0)) / reps / float64(time.Microsecond)
		m["core.encode_bytes."+k] = float64(n)
	}
	return nil
}

// ---- explore-cold ----------------------------------------------------------

func traceExploreCold(ctx context.Context, o options, dir string) (*replay, error) {
	keys := coldCycle(o.seed)
	full := sweep.Default()
	var unique []float64
	var evals, proposals, generations int
	return &replay{
		op: func(ctx context.Context, t *tracer, i int, root int32) error {
			k := keys[i%len(keys)]
			op := int32(i)
			var g *dfg.Graph
			var eng *sweep.Engine
			err := t.span("workloads.build", root, op, func(int32) error {
				var err error
				g, err = buildGraph(k.workload, k.size)
				return err
			})
			if err == nil {
				// NewEngine is where the daemon compiles (aladdin.Compile).
				err = t.span("sweep.new_engine", root, op, func(int32) error {
					eng, err = sweep.NewEngine(g)
					return err
				})
			}
			if err != nil {
				return err
			}
			if isColdSearch(i, len(keys)) {
				s := coldSearch(k, i, len(keys))
				var res *search.Result
				err := t.span("search.run", root, op, func(int32) error {
					run := s.config()
					run.Workers = generatorProcs
					res, err = search.RunContext(ctx, eng, run)
					return err
				})
				if err != nil {
					return err
				}
				evals += res.Evaluations
				proposals += s.Population * (res.Generations + 1)
				generations += res.Generations
				return t.span("core.encode", root, op, func(int32) error {
					_, err := encodeBody(core.NewSearchJSON(s.Workload, s.config(), res))
					return err
				})
			}
			var pts []sweep.Point
			if err := t.span("sweep.run", root, op, func(int32) error {
				pts, err = eng.RunContext(ctx, full, generatorProcs)
				return err
			}); err != nil {
				return err
			}
			unique = append(unique, float64(eng.CachedPoints())/float64(len(pts)))
			return t.span("core.encode", root, op, func(int32) error {
				_, err := sweepBody(eng, k.workload, pts)
				return err
			})
		},
		layers: func(ctx context.Context, t *tracer, m map[string]float64) error {
			m["sweep.grid_ms"] = meanOf(t.durs("sweep.run"), time.Millisecond)
			m["sweep.unique_ratio"] = median(unique)
			m["search.generation_ms"] = 0
			if generations > 0 {
				m["search.generation_ms"] = sumOf(t.durs("search.run"), time.Millisecond) / float64(generations)
			}
			m["search.eval_ratio"] = 0
			if proposals > 0 {
				m["search.eval_ratio"] = float64(evals) / float64(proposals)
			}
			return aladdinCosts(ctx, t, full, m)
		},
		close: func() {},
	}, nil
}

// aladdinCosts measures the simulator kernel directly on each cold kernel
// at its default size: one compile, then one batch over the full grid's
// unique designs on a cold schedule cache; and the sweep pool at 1 and 2
// workers on fresh engines.
func aladdinCosts(ctx context.Context, t *tracer, grid sweep.Params, m map[string]float64) error {
	var simNS, points, batchAllocs float64
	var walks, hits uint64
	var t1, t2 time.Duration
	for _, k := range coldKernels {
		g, err := buildGraph(k.name, k.def)
		if err != nil {
			return err
		}
		var c *aladdin.Compiled
		if err := t.span("aladdin.compile", 0, -1, func(int32) error {
			c, err = aladdin.Compile(g)
			return err
		}); err != nil {
			return err
		}
		eng, err := sweep.NewEngine(g)
		if err != nil {
			return err
		}
		designs := uniqueDesigns(eng, grid)
		results := make([]aladdin.Result, len(designs))
		errs := make([]error, len(designs))
		t0 := time.Now()
		n, _, _ := allocs(func() error {
			c.SimulateBatchInto(designs, results, errs)
			return nil
		})
		simNS += float64(time.Since(t0))
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		points += float64(len(designs))
		batchAllocs += float64(n)
		w, h := c.ScheduleCacheStats()
		walks += w
		hits += h
		for workers, acc := range map[int]*time.Duration{1: &t1, 2: &t2} {
			fresh, err := sweep.NewEngine(g)
			if err != nil {
				return err
			}
			s := time.Now()
			if _, err := fresh.RunContext(ctx, grid, workers); err != nil {
				return err
			}
			*acc += time.Since(s)
		}
	}
	m["aladdin.compile_us"] = meanOf(t.durs("aladdin.compile"), time.Microsecond)
	m["aladdin.simulate_ns_per_point"] = simNS / points
	m["aladdin.simulate_allocs_per_batch"] = batchAllocs / float64(len(coldKernels))
	m["aladdin.sched_reuse_ratio"] = float64(hits) / float64(walks+hits)
	m["sweep.pool_efficiency"] = float64(t1) / (2 * float64(t2))
	return nil
}

// uniqueDesigns enumerates grid in the sweep's order (node, fusion,
// simplification, partition) and keeps the first design of each
// normalized key: the designs a cold sweep actually simulates.
func uniqueDesigns(eng *sweep.Engine, p sweep.Params) []aladdin.Design {
	seen := make(map[aladdin.Design]bool)
	var out []aladdin.Design
	for _, node := range p.Nodes {
		for _, fusion := range p.Fusion {
			for _, s := range p.Simplifications {
				for _, f := range p.Partitions {
					d := eng.Normalize(aladdin.Design{NodeNM: node, Partition: f, Simplification: s, Fusion: fusion})
					if !seen[d] {
						seen[d] = true
						out = append(out, d)
					}
				}
			}
		}
	}
	return out
}

// ---- wall-bands -------------------------------------------------------------

func traceWallBands(ctx context.Context, o options, dir string) (*replay, error) {
	return &replay{
		op: func(ctx context.Context, t *tracer, i int, root int32) error {
			u := wallOp(o.seed, i)
			op := int32(i)
			var e *montecarlo.Engine
			err := t.span("montecarlo.new", root, op, func(int32) error {
				var err error
				e, err = montecarlo.New(u.CorpusSeed)
				return err
			})
			if err != nil {
				return err
			}
			var res *montecarlo.Result
			if err := t.span("montecarlo.run", root, op, func(int32) error {
				cfg := u.config()
				cfg.Workers = generatorProcs
				res, err = e.RunContext(ctx, cfg)
				return err
			}); err != nil {
				return err
			}
			return t.span("core.encode", root, op, func(int32) error {
				_, err := encodeBody(core.NewUncertaintyJSON(res))
				return err
			})
		},
		layers: func(ctx context.Context, t *tracer, m map[string]float64) error {
			m["montecarlo.new_ms"] = meanOf(t.durs("montecarlo.new"), time.Millisecond)
			// The workload's premise: replicates, not the per-op corpus
			// fit in montecarlo.New, dominate an op.
			fit, reps := sumOf(t.durs("montecarlo.new"), time.Millisecond), sumOf(t.durs("montecarlo.run"), time.Millisecond)
			if fit > 0.25*(fit+reps) {
				return fmt.Errorf("montecarlo.New takes %.0f%% of the Monte Carlo time; replicates must dominate", 100*fit/(fit+reps))
			}
			return monteCarloCosts(ctx, m)
		},
		close: func() {},
	}, nil
}

// monteCarloCosts measures one replicate at one worker (time, allocations,
// bytes), the replicate pool at 1 vs 2 workers, one budget fit of a
// resampled corpus, and one pass of the GPU relation analysis a replicate
// runs through casestudy.ArchScalingWith.
func monteCarloCosts(ctx context.Context, m map[string]float64) error {
	e, err := montecarlo.New(1)
	if err != nil {
		return err
	}
	cfg := uncertaintySpec{Replicates: wallReplicates, Seed: 7, CorpusSeed: 1, CMOSJitter: 0.03}.config()
	cfg.Workers = 1
	var d1 time.Duration
	n, b, err := allocs(func() error {
		s := time.Now()
		_, err := e.RunContext(ctx, cfg)
		d1 = time.Since(s)
		return err
	})
	if err != nil {
		return err
	}
	reps := float64(cfg.Replicates)
	m["montecarlo.replicate_us"] = float64(d1) / reps / float64(time.Microsecond)
	m["montecarlo.replicate_allocs"] = float64(n) / reps
	m["montecarlo.replicate_kib"] = float64(b) / reps / 1024
	cfg.Workers = 2
	s := time.Now()
	if _, err := e.RunContext(ctx, cfg); err != nil {
		return err
	}
	m["montecarlo.pool_efficiency"] = float64(d1) / (2 * float64(time.Since(s)))

	corpus := chipdb.Synthetic(1)
	rng := rand.New(rand.NewSource(1))
	const fits = 30
	var fitTime time.Duration
	var fitAllocs uint64
	var model *budget.Model
	for k := 0; k < fits; k++ {
		sample := corpus.Resample(rng)
		n, _, err := allocs(func() error {
			s := time.Now()
			var err error
			model, err = budget.Fit(sample)
			fitTime += time.Since(s)
			return err
		})
		if err != nil {
			return err
		}
		fitAllocs += n
	}
	m["budget.fit_us"] = float64(fitTime) / fits / float64(time.Microsecond)
	m["budget.fit_allocs"] = float64(fitAllocs) / fits
	gm := gains.NewModel(model)
	s = time.Now()
	for k := 0; k < fits; k++ {
		if _, err := casestudy.ArchScalingWith(gm, gains.TargetThroughput); err != nil {
			return err
		}
	}
	m["csr.relations_us"] = float64(time.Since(s)) / fits / float64(time.Microsecond)
	return nil
}

// ---- jobs-replicated --------------------------------------------------------

// inProcessCluster serves two in-process peers on loopback listeners, each
// with its own jobs directory under dir.
func inProcessCluster(ctx context.Context, dir string) (*fleet, func(), error) {
	var lns []net.Listener
	var urls []string
	for k := 0; k < 2; k++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, len(lns))
	f := &fleet{client: newClient(1)}
	stop := func() {
		cancel()
		for range f.peers {
			<-done
		}
		f.client.CloseIdleConnections()
	}
	for k, ln := range lns {
		srv, err := server.New(server.Options{
			Workers:        1,
			JobsDir:        filepath.Join(dir, "peer"+strconv.Itoa(k), "jobs"),
			ClusterPeers:   urls,
			ClusterSelf:    urls[k],
			RepairInterval: time.Hour,
		})
		if err != nil {
			for _, l := range lns[k:] {
				l.Close()
			}
			stop()
			return nil, nil, err
		}
		f.peers = append(f.peers, &daemon{url: urls[k], dir: filepath.Join(dir, "peer"+strconv.Itoa(k))})
		go func() {
			srv.Serve(sctx, ln) //nolint:errcheck // a drain failure shows as a failed next run
			done <- struct{}{}
		}()
	}
	for _, d := range f.peers {
		if err := f.waitReady(ctx, d); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return f, stop, nil
}

func traceJobs(ctx context.Context, o options, dir string) (*replay, error) {
	f, stop, err := inProcessCluster(ctx, dir)
	if err != nil {
		return nil, err
	}
	keys := coldKeys()
	warm := jobRound(warmSeed(o.seed, 0), coldKey{"RED", 0}, 0)
	if _, _, err := runRound(ctx, f, warm, nil, nil); err != nil {
		stop()
		return nil, err
	}
	before, err := snapshotMetrics(ctx, f)
	if err != nil {
		stop()
		return nil, err
	}
	var waits []time.Duration
	var payload []byte
	jobs := 0
	return &replay{
		op: func(ctx context.Context, t *tracer, i int, root int32) error {
			var times [2]jobTimes
			round := jobRound(o.seed<<32|int64(i+1), keys[i%len(keys)], i)
			status, body, err := runRound(ctx, f, round, nil, &times)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("job round: status %d", status)
			}
			payload = body
			op := int32(i)
			for k, j := range round {
				tm := times[k]
				t.add("jobs."+j.kind+".queue_wait", root, op, tm.submitted, tm.started)
				t.add("jobs."+j.kind+".run", root, op, tm.started, tm.done)
				t.add("jobs."+j.kind+".sync_request", root, op, tm.syncStart, tm.syncEnd)
				waits = append(waits, tm.started.Sub(tm.submitted))
				jobs++
			}
			return nil
		},
		layers: func(ctx context.Context, t *tracer, m map[string]float64) error {
			after, err := snapshotMetrics(ctx, f)
			if err != nil {
				return err
			}
			d := delta{before, after}
			m["jobs.queue_wait_ms"] = meanOf(waits, time.Millisecond)
			m["checkpoint.snapshots_per_job"] = d.of(0, "jobs", "snapshots") / float64(max(1, jobs))
			m["jobs.replica_pushes"] = d.of(1, "per_route", "POST /v1/internal/jobs/replicate") / float64(max(1, jobs))
			m["cluster.hedges"] = d.of(0, "cluster", "hedges")
			m["cluster.steals"] = d.of(0, "cluster", "steals")
			m["cluster.local_fallbacks"] = d.of(0, "cluster", "scatter_fails")
			if err := checkpointCost(filepath.Join(dir, "store"), payload, m); err != nil {
				return err
			}
			return sliceCosts(ctx, t, f, m)
		},
		close: stop,
	}, nil
}

// checkpointCost times checkpoint.Store.Write of a job-sized payload (a
// job result) in the jobs directory's medium.
func checkpointCost(dir string, payload []byte, m map[string]float64) error {
	st, err := checkpoint.Open(dir)
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		payload = make([]byte, 16<<10)
	}
	const writes = 20
	s := time.Now()
	for k := 0; k < writes; k++ {
		if err := st.Write("bench", payload); err != nil {
			return err
		}
	}
	m["checkpoint.write_us"] = float64(time.Since(s)) / writes / float64(time.Microsecond)
	return nil
}

// sliceCosts scatters an uncertainty replicate range as two slices, one to
// each peer's POST /v1/internal/slice, in parallel under one scatter span:
// encode, round trip and decode per slice.
func sliceCosts(ctx context.Context, t *tracer, f *fleet, m map[string]float64) error {
	cfg := uncertaintySpec{Replicates: 2 * jobReplicates, Seed: 99, CorpusSeed: 1, CMOSJitter: 0.03}.config().Normalized()
	const scatters = 8
	var frameBytes, slices int
	for rep := 0; rep < scatters; rep++ {
		errs := make(chan error, len(f.peers))
		sizes := make(chan int, len(f.peers))
		err := t.span("cluster.scatter", 0, int32(-1-rep), func(sid int32) error {
			for p := range f.peers {
				go func(p int) {
					errs <- t.span("cluster.slice", sid, int32(-1-rep), func(id int32) error {
						n, err := oneSlice(ctx, t, f, p, id, int32(-1-rep), &cluster.SliceRequest{
							Kind: cluster.KindUncertainty, Lo: p * jobReplicates, Hi: (p + 1) * jobReplicates, MC: &cfg,
						})
						sizes <- n
						return err
					})
				}(p)
			}
			var first error
			for range f.peers {
				if err := <-errs; err != nil && first == nil {
					first = err
				}
				frameBytes += <-sizes
				slices++
			}
			return first
		})
		if err != nil {
			return err
		}
	}
	codec := append(t.durs("cluster.encode"), t.durs("cluster.decode")...)
	m["cluster.slice_rtt_ms"] = meanOf(t.durs("cluster.post"), time.Millisecond)
	m["cluster.codec_us"] = sumOf(codec, time.Microsecond) / float64(slices)
	m["cluster.slice_bytes"] = float64(frameBytes) / float64(slices)
	return nil
}

// oneSlice encodes req, posts it to peer p and decodes the answer, with a
// span per step; it returns the request plus response frame bytes.
func oneSlice(ctx context.Context, t *tracer, f *fleet, p int, parent, op int32, req *cluster.SliceRequest) (int, error) {
	var frame, resp []byte
	t.span("cluster.encode", parent, op, func(int32) error { //nolint:errcheck // never fails
		frame = cluster.EncodeRequest(req)
		return nil
	})
	err := t.span("cluster.post", parent, op, func(int32) error {
		hreq, err := http.NewRequestWithContext(ctx, "POST", f.peers[p].url+"/v1/internal/slice", bytes.NewReader(frame))
		if err != nil {
			return err
		}
		hr, err := f.client.Do(hreq)
		if err != nil {
			return err
		}
		defer hr.Body.Close()
		resp, err = io.ReadAll(hr.Body)
		if err == nil && hr.StatusCode != http.StatusOK {
			err = fmt.Errorf("slice on peer %d: status %d: %.200s", p, hr.StatusCode, resp)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	err = t.span("cluster.decode", parent, op, func(int32) error {
		_, err := cluster.DecodeResponse(resp)
		return err
	})
	return len(frame) + len(resp), err
}
