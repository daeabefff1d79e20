package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one closed-loop operation. do performs it against the fleet and
// returns the status and the body that must equal the reference named by
// refKey.
type op struct {
	family string
	refKey string
	do     func(ctx context.Context, f *fleet) (status int, body []byte, err error)
}

// plan is one workload's seeded input: its operation stream and the
// set-up, reference and premise hooks around it.
type plan struct {
	op    func(i int) op
	cycle int // the timed window ends only at a multiple of cycle ops
	// digestOps bounds the ops whose reference bodies form the outputs
	// digest, so the digest does not depend on how many ops a run reached.
	digestOps int
	warm      func(ctx context.Context, f *fleet) error
	ref       func(ctx context.Context, key string) ([]byte, error)
	premise   func(d delta, s *windowStats) error
}

// workload is one benchmark traffic mix.
type workload struct {
	name  string
	tail  float64 // fixed tail percentile, with >= minBeyond samples beyond it
	conns int
	peers []peerSpec
	plan  func(seed int64) (*plan, error)
	// traced builds the in-process replay of the op stream for the traced
	// run; probe is how many of its ops the traced run of another workload
	// replays to take this workload's layer metrics. See trace.go.
	traced func(ctx context.Context, o options, dir string) (*replay, error)
	probe  int
}

const (
	setupRepeats = 7  // setups per run; setup_s is their median
	minBeyond    = 10 // samples a reported tail percentile must have beyond it
)

// sample is one timed operation.
type sample struct {
	i       int
	family  string
	refKey  string
	lat     time.Duration
	end     time.Duration // completion, since the window opened
	outcome outcome
	sum     [32]byte
	err     error
}

// windowStats is what the premise checks see of a timed window.
type windowStats struct {
	ops   int
	fleet *fleet
}

// delta holds every peer's /v1/metrics before and after the timed window.
type delta struct{ before, after []tree }

// of is the change of the counter at path on peer i.
func (d delta) of(i int, path ...string) float64 {
	return d.after[i].num(path...) - d.before[i].num(path...)
}

// snapshotMetrics fetches /v1/metrics from every peer.
func snapshotMetrics(ctx context.Context, f *fleet) ([]tree, error) {
	out := make([]tree, len(f.peers))
	for i := range f.peers {
		t, err := f.metrics(ctx, i)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// closedLoop runs ops back to back on conns connections from start for at
// least d, each connection sending its next op only after the previous
// reply. Past d the window goes on until enough() (or maxWindow × d): a
// window the host disturbed measures on until it holds enough calm time.
// With a cycle > 1 (one connection only) the window is extended to the end
// of the current cycle so every run sees whole cycles.
func closedLoop(ctx context.Context, f *fleet, p *plan, conns int, start time.Time, d time.Duration, enough func() bool) ([]sample, time.Duration) {
	var next atomic.Int64
	deadline, limit := start.Add(d), start.Add(maxWindow*d)
	per := make([][]sample, conns)
	ends := make([]time.Time, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ends[c] = start
			for ctx.Err() == nil {
				if now := time.Now(); now.After(deadline) && (now.After(limit) || enough()) && int(next.Load())%p.cycle == 0 {
					return
				}
				i := int(next.Add(1) - 1)
				o := p.op(i)
				t0 := time.Now()
				status, body, err := o.do(ctx, f)
				t1 := time.Now()
				s := sample{i: i, family: o.family, refKey: o.refKey, lat: t1.Sub(t0), end: t1.Sub(start), err: err}
				switch {
				case errors.Is(err, errJobMismatch):
					s.outcome = outcomeMismatch
				case err != nil:
					s.outcome = outcomeError
				default:
					s.outcome = classify(status)
					if s.outcome != outcomeOK {
						s.err = fmt.Errorf("status %d: %.200s", status, body)
					}
					s.sum = sha256.Sum256(body)
				}
				per[c] = append(per[c], s)
				ends[c] = t1
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	end := start
	for c := range per {
		all = append(all, per[c]...)
		if ends[c].After(end) {
			end = ends[c]
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all, end.Sub(start)
}

// verify compares every successful sample's body hash with the hash of its
// reference body, built in-process once per distinct key, and returns the
// outputs digest over the first digestOps ops' references.
func verify(ctx context.Context, p *plan, samples []sample) (string, error) {
	refs := make(map[string][32]byte)
	get := func(key string) ([32]byte, error) {
		if h, ok := refs[key]; ok {
			return h, nil
		}
		b, err := p.ref(ctx, key)
		if err != nil {
			return [32]byte{}, fmt.Errorf("reference %s: %w", key, err)
		}
		h := sha256.Sum256(b)
		refs[key] = h
		return h, nil
	}
	for i := range samples {
		s := &samples[i]
		if s.outcome != outcomeOK {
			continue
		}
		want, err := get(s.refKey)
		if err != nil {
			return "", err
		}
		if s.sum != want {
			s.outcome = outcomeMismatch
			s.err = fmt.Errorf("body differs from the in-process reference %s", s.refKey)
		}
	}
	var keys []string
	seen := make(map[string]bool)
	for _, s := range samples {
		if s.i < p.digestOps && !seen[s.refKey] {
			seen[s.refKey] = true
			keys = append(keys, s.refKey)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		ref, err := get(k)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s=%x\n", k, ref)
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// report is everything a run prints besides the final result line.
type report struct {
	lines []string
	host  map[string]any
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// generatorCPU is this process's own user+system CPU time.
func generatorCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks are the machine-wide CPU time counters of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// hostTicks reads the "cpu" line of /proc/stat; zero if unreadable.
func hostTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

const (
	sampleEvery = 100 * time.Millisecond // host and daemon CPU sampling period
	sliceWidth  = time.Second            // slice length of workloads without a cycle
	// calmSteal is the most CPU steal, in percent of the machine's CPU
	// time, a calm slice may have; /proc/stat counts it in 0.5% steps of a
	// 2-vCPU second. On such a guest steal comes in phases of seconds to
	// minutes: calm seconds read 0-1.5%, phases 5-30%, and windows in a
	// phase read 20-50% below calm ones, the daemon's CPU per op rising.
	calmSteal = 2.0
	// A window measures until its calm slices cover calmShare of the
	// requested length, but for no longer than maxWindow times it.
	calmShare = 2.0 / 3
	maxWindow = 3
)

// hostSample is one reading of the host's and the daemons' CPU counters.
type hostSample struct {
	at    time.Duration // since the window opened
	ticks cpuTicks
	cpu   time.Duration // the daemons' summed user+system CPU
	rss   float64       // the daemons' summed VmRSS, MiB
}

// hostSeries samples the host's and the daemons' CPU counters through a
// window, so each slice of the window gets its own steal and daemon CPU.
type hostSeries struct {
	mu      sync.Mutex
	samples []hostSample
	calm    atomic.Int64 // whole seconds so far with at most calmSteal steal
	done    chan struct{}
	stopped chan struct{}
}

// sampleHost samples every sampleEvery from start until stop.
func sampleHost(f *fleet, start time.Time) *hostSeries {
	h := &hostSeries{done: make(chan struct{}), stopped: make(chan struct{})}
	perSecond := int(time.Second / sampleEvery)
	go func() {
		defer close(h.stopped)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			u, err := f.usage()
			if err == nil {
				h.mu.Lock()
				h.samples = append(h.samples, hostSample{time.Since(start), hostTicks(), u.cpu, u.rssMiB})
				if n := len(h.samples); n > perSecond && (n-1)%perSecond == 0 {
					if h.steal(h.samples[n-1-perSecond], h.samples[n-1]) <= calmSteal {
						h.calm.Add(1)
					}
				}
				h.mu.Unlock()
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling.
func (h *hostSeries) stop() {
	close(h.done)
	<-h.stopped
}

// calmSeconds is how many whole seconds of the window so far were calm.
func (h *hostSeries) calmSeconds() int { return int(h.calm.Load()) }

func (h *hostSeries) steal(a, b hostSample) float64 {
	if b.ticks.total <= a.ticks.total {
		return 0
	}
	return 100 * float64(b.ticks.steal-a.ticks.steal) / float64(b.ticks.total-a.ticks.total)
}

// at interpolates the counters linearly at t.
func (h *hostSeries) at(t time.Duration) hostSample {
	s := h.samples
	i := sort.Search(len(s), func(i int) bool { return s[i].at > t })
	switch {
	case i == 0:
		return s[0]
	case i == len(s):
		return s[len(s)-1]
	}
	a, b := s[i-1], s[i]
	x := float64(t-a.at) / float64(b.at-a.at)
	lerp := func(u, v uint64) uint64 { return u + uint64(x*float64(v-u)) }
	return hostSample{
		at:    t,
		ticks: cpuTicks{total: lerp(a.ticks.total, b.ticks.total), steal: lerp(a.ticks.steal, b.ticks.steal)},
		cpu:   a.cpu + time.Duration(x*float64(b.cpu-a.cpu)),
	}
}

// between returns the host's CPU steal, in percent, and the daemons' CPU
// time over [from, to) of the window.
func (h *hostSeries) between(from, to time.Duration) (stealPct float64, cpu time.Duration) {
	if len(h.samples) == 0 {
		return 0, 0
	}
	a, b := h.at(from), h.at(to)
	return h.steal(a, b), b.cpu - a.cpu
}

// rssP90 is the 90th percentile of the window's resident-memory samples:
// the top of the garbage collector's sawtooth. The peak itself (VmHWM) is
// set by sub-100 ms spikes whose height depends on when the collector ran;
// it is recorded in the host line but spread too far between runs to gate.
func (h *hostSeries) rssP90() float64 {
	rss := make([]float64, len(h.samples))
	for i, s := range h.samples {
		rss[i] = s.rss
	}
	v, _ := percentile(rss, 90)
	return v
}

// runE2E measures one workload against real daemons, untraced.
func runE2E(ctx context.Context, w *workload, o options, rep *report) (*result, error) {
	p, err := w.plan(o.seed)
	if err != nil {
		return nil, err
	}
	dir, err := runDir(o, w.name)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var f *fleet
	defer func() { f.stop() }() //nolint:errcheck // error path; the success path checks stop
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			if err := f.stop(); err != nil {
				return nil, err
			}
			f = nil
		}
		t0 := time.Now()
		f, err = startFleet(ctx, o.daemon, filepath.Join(dir, fmt.Sprintf("setup%d", k)), w.peers, w.conns)
		if err != nil {
			return nil, err
		}
		if err := p.warm(ctx, f); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	before, err := snapshotMetrics(ctx, f)
	if err != nil {
		return nil, err
	}
	gen0 := generatorCPU()
	start := time.Now()
	hs := sampleHost(f, start)
	window := time.Duration(o.seconds) * time.Second
	calmNeeded := time.Duration(calmShare * float64(window))
	samples, elapsed := closedLoop(ctx, f, p, w.conns, start, window,
		func() bool { return time.Duration(hs.calmSeconds())*time.Second >= calmNeeded })
	hs.stop()
	gen1 := generatorCPU()
	use1, err := f.usage()
	if err != nil {
		return nil, err
	}
	after, err := snapshotMetrics(ctx, f)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := p.premise(delta{before, after}, &windowStats{ops: len(samples), fleet: f}); err != nil {
		return nil, fmt.Errorf("premise check failed for %s: %w", w.name, err)
	}
	err = f.stop()
	f = nil
	if err != nil {
		return nil, err
	}

	digest, err := verify(ctx, p, samples)
	if err != nil {
		return nil, err
	}
	var t tally
	ops := make([]timed, 0, len(samples))
	byFamily := make(map[string][]float64)
	var firstErr error
	for _, s := range samples {
		t.add(s.outcome)
		ms := float64(s.lat) / float64(time.Millisecond)
		if s.outcome != outcomeOK {
			ms = math.Inf(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("op %d (%s %s): %v", s.i, s.family, s.refKey, s.err)
			}
		}
		ops = append(ops, timed{end: s.end, ms: ms})
		byFamily[s.family] = append(byFamily[s.family], ms)
	}
	secs := elapsed.Seconds()
	sum, err := windowSummary(ops, p.cycle, w.tail, calmNeeded, hs.between)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{
		Correct:   t.Failed == 0,
		Attempted: t.Attempted,
		Failed:    t.Failed,
		Metrics: map[string]metric{
			"throughput_rps":  {sum.rps, "1/s"},
			"latency_p50_ms":  {sum.p50, "ms"},
			"latency_tail_ms": {sum.tail, "ms"},
			"cpu_ms_per_op":   {sum.cpuMsPerOp, "ms"},
			"rss_p90_mib":     {hs.rssP90(), "MiB"},
			"setup_s":         {median(setups), "s"},
		},
	}
	rep.printf("workload %s: %d ops in %.3f s on %d connection(s); tail is p%g; refused %d, mismatched %d, failed %d",
		w.name, t.Attempted, secs, w.conns, w.tail, t.Refused, t.Mismatch, t.Failed)
	rep.printf("figures from %d of %d slices (the calm ones if they cover %.0f%% of %d s; host CPU steal %.2f%% over the window)",
		sum.used, sum.slices, 100*calmShare, o.seconds, sum.stealPct)
	rep.printf("  slice steal %%: %.1f", sum.sliceSteal)
	rep.printf("  slice ops/s:   %.4g", sum.sliceRPS)
	if firstErr != nil {
		rep.printf("first failure: %v", firstErr)
	}
	fams := make([]string, 0, len(byFamily))
	for k := range byFamily {
		fams = append(fams, k)
	}
	sort.Strings(fams)
	for _, k := range fams {
		v, _ := percentile(byFamily[k], 50)
		rep.printf("  route %-14s n=%-6d p50 %.3f ms", k, len(byFamily[k]), v)
	}
	rep.printf("setup runs (s): %v", setups)
	rep.printf("outputs digest: %s", digest)
	rep.host = hostRecord(w, o)
	rep.host["generator_cpu_ms_per_op"] = float64(gen1-gen0) / float64(time.Millisecond) / float64(max(1, t.Attempted))
	rep.host["outputs_digest"] = digest
	// Time the hypervisor ran other guests on this machine's CPUs: a noisy
	// window shows here, not in the daemon's own CPU time.
	rep.host["cpu_steal_pct"] = sum.stealPct
	rep.host["slices_used"] = sum.used
	rep.host["slices"] = sum.slices
	rep.host["daemon_vmhwm_mib"] = use1.hwmMiB
	return res, nil
}
