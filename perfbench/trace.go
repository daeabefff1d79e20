package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run replays a workload's op stream in-process through the
// layers' public functions, with a span around each call. Spans are kept
// in memory and written to <workdir>/<workload>-trace/spans.jsonl when the
// run ends. The untraced end-to-end run never records spans.

// tracer records spans; a tracer that is off only runs the wrapped calls.
type tracer struct {
	on    bool
	epoch time.Time
	next  atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, epoch time.Time) *tracer { return &tracer{on: on, epoch: epoch} }

// span runs fn inside a span named name, child of parent (0: root), for op
// number op; fn receives the new span's id to parent its own children.
func (t *tracer) span(name string, parent, op int32, fn func(id int32) error) error {
	if !t.on {
		return fn(0)
	}
	id := t.next.Add(1)
	start := time.Since(t.epoch)
	err := fn(id)
	t.record(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: time.Since(t.epoch)})
	return err
}

// add records a span whose interval was observed rather than wrapped, such
// as the queue wait of a job polled from outside the daemon.
func (t *tracer) add(name string, parent, op int32, from, to time.Time) {
	if !t.on || from.IsZero() || to.IsZero() {
		return
	}
	t.record(span{ID: t.next.Add(1), Parent: parent, Op: op, Name: name, Start: from.Sub(t.epoch), End: to.Sub(t.epoch)})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durs returns the durations of every span named name.
func (t *tracer) durs(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanOf returns the mean of ds in unit, 0 for no spans.
func meanOf(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(unit)
}

// sumOf returns the total of ds in unit.
func sumOf(ds []time.Duration, unit time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(unit)
}

// replay is one workload's op stream run in-process.
type replay struct {
	// op runs op i with its spans under root.
	op func(ctx context.Context, t *tracer, i int, root int32) error
	// layers computes the workload's per-layer metrics from t's spans and
	// from direct measurements of the layers it exercises.
	layers func(ctx context.Context, t *tracer, m map[string]float64) error
	close  func()
}

// allocs measures heap allocations and bytes of fn, run alone.
func allocs(fn func() error) (mallocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// replayOps runs r's ops from 0, each inside a root "op" span, until d has
// elapsed (d > 0) or n ops have run (n > 0). With off non-nil every op runs
// twice, once on t and once on off, alternating which goes first so that
// neither side always meets warmer caches; durations are summed per side.
// It returns the op count and the total wall time on t and on off.
func replayOps(ctx context.Context, r *replay, t, off *tracer, d time.Duration, n int) (ops int, on, untraced time.Duration, err error) {
	start := time.Now()
	one := func(tr *tracer, i int) (time.Duration, error) {
		s := time.Now()
		err := tr.span("op", 0, int32(i), func(id int32) error { return r.op(ctx, tr, i, id) })
		return time.Since(s), err
	}
	for ; (d <= 0 || time.Since(start) < d) && (n <= 0 || ops < n); ops++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		order := []*tracer{t, off}
		if ops%2 == 1 {
			order = []*tracer{off, t}
		}
		for _, tr := range order {
			if tr == nil {
				continue
			}
			dur, err := one(tr, ops)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("op %d: %w", ops, err)
			}
			if tr == t {
				on += dur
			} else {
				untraced += dur
			}
		}
	}
	return ops, on, untraced, nil
}

// perLayerUnits lists every per-layer metric and its unit; the traced run
// reports each one.
var perLayerUnits = map[string]string{
	"aladdin.compile_us":                "us",
	"aladdin.simulate_ns_per_point":     "ns",
	"aladdin.simulate_allocs_per_batch": "count",
	"aladdin.sched_reuse_ratio":         "ratio",
	"sweep.grid_ms":                     "ms",
	"sweep.pool_efficiency":             "ratio",
	"sweep.unique_ratio":                "ratio",
	"search.generation_ms":              "ms",
	"search.eval_ratio":                 "ratio",
	"montecarlo.new_ms":                 "ms",
	"montecarlo.replicate_us":           "us",
	"montecarlo.replicate_allocs":       "count",
	"montecarlo.replicate_kib":          "KiB",
	"montecarlo.pool_efficiency":        "ratio",
	"budget.fit_us":                     "us",
	"budget.fit_allocs":                 "count",
	"csr.relations_us":                  "us",
	"server.transport_us":               "us",
	"server.respcache_hit_ratio":        "ratio",
	"server.engine_hit_ratio":           "ratio",
	"server.sheds":                      "count",
	"checkpoint.write_us":               "us",
	"checkpoint.snapshots_per_job":      "count",
	"jobs.queue_wait_ms":                "ms",
	"jobs.replica_pushes":               "count",
	"cluster.slice_rtt_ms":              "ms",
	"cluster.codec_us":                  "us",
	"cluster.slice_bytes":               "bytes",
	"cluster.hedges":                    "count",
	"cluster.steals":                    "count",
	"cluster.local_fallbacks":           "count",
	"trace.overhead_pct":                "%",
	"trace.ops":                         "count",
}

// serveFamilies are the serve-warm route families with per-route metrics.
var serveFamilies = []string{"sweep", "uncertainty", "search", "casestudy", "experiments", "cmos", "projection", "csr"}

// encodeKinds are the response kinds whose encoding is measured.
var encodeKinds = []string{"sweep", "uncertainty", "search", "casestudy"}

func init() {
	for _, f := range serveFamilies {
		perLayerUnits["server.handler_us."+f] = "us"
		perLayerUnits["server.handler_allocs."+f] = "count"
	}
	for _, k := range encodeKinds {
		perLayerUnits["core.encode_us."+k] = "us"
		perLayerUnits["core.encode_bytes."+k] = "bytes"
	}
}

// runTraced is the traced run of workload w. For the window it replays w's
// op stream running every op twice, traced and untraced in alternating
// order, and reports the difference as the tracing overhead. The traced
// side gives w's per-layer metrics; a short traced probe of every other
// workload gives theirs, so each traced run reports every metric.
func runTraced(ctx context.Context, w *workload, o options, rep *report) (*result, error) {
	dir, err := runDir(o, w.name+"-trace")
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	m := make(map[string]float64)
	type run struct {
		name string
		t    *tracer
	}
	var runs []run
	r, err := w.traced(ctx, o, filepath.Join(dir, "replay"))
	if err != nil {
		return nil, err
	}
	on := newTracer(true, epoch)
	n, dOn, dOff, err := replayOps(ctx, r, on, newTracer(false, epoch), time.Duration(o.seconds)*time.Second, 0)
	if err == nil {
		err = r.layers(ctx, on, m)
	}
	r.close()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	runs = append(runs, run{w.name, on})
	for _, name := range workloadNames() {
		x := allWorkloads[name]
		if x == w {
			continue
		}
		px, err := x.traced(ctx, o, filepath.Join(dir, "probe-"+name))
		if err != nil {
			return nil, err
		}
		t := newTracer(true, epoch)
		_, _, _, err = replayOps(ctx, px, t, nil, 0, x.probe)
		if err == nil {
			err = px.layers(ctx, t, m)
		}
		px.close()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		runs = append(runs, run{name, t})
	}
	m["trace.ops"] = float64(n)
	m["trace.overhead_pct"] = 100 * (dOn.Seconds() - dOff.Seconds()) / dOff.Seconds()

	res := &result{Correct: true, Attempted: n, Metrics: make(map[string]metric, len(perLayerUnits))}
	for name, unit := range perLayerUnits {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not taken", name)
		}
		res.Metrics[name] = metric{v, unit}
	}

	out, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	for _, r := range runs {
		for _, s := range r.t.spans {
			// Start and End are nanoseconds since the run's epoch.
			if err := enc.Encode(struct {
				Replay string
				span
			}{r.name, s}); err != nil {
				out.Close()
				return nil, err
			}
		}
	}
	if err := errors.Join(bw.Flush(), out.Close()); err != nil {
		return nil, err
	}

	rep.printf("traced run of %s: %d ops untraced in %.3f s, the same ops traced in %.3f s: overhead %.2f%%",
		w.name, n, dOff.Seconds(), dOn.Seconds(), m["trace.overhead_pct"])
	rep.printf("spans: %s", filepath.Join(dir, "spans.jsonl"))
	for _, r := range runs {
		rep.printf("self time by span (%s):", r.name)
		for _, l := range selfTimeTable(r.t.spans) {
			rep.printf("  %s", l)
		}
	}
	rep.host = hostRecord(w, o)
	return res, nil
}

// selfTimeTable summarises spans by name: count, total and self time.
func selfTimeTable(spans []span) []string {
	self := selfTimes(spans)
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := make(map[string]*agg)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	out := make([]string, 0, len(names))
	for _, k := range names {
		a := by[k]
		out = append(out, fmt.Sprintf("%-32s n=%-7d total %10.3f ms  self %10.3f ms  mean %9.1f us",
			k, a.n, float64(a.total)/1e6, float64(a.self)/1e6, float64(a.total)/float64(a.n)/1e3))
	}
	return out
}
