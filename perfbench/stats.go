package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and how many samples lie strictly beyond it. xs need not be sorted; it is
// sorted in place. Failed operations enter xs as +Inf, so they count as
// missing every latency limit.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1], len(xs) - rank
}

// tailPercentile is percentile with the benchmark's sample rule: a tail
// percentile is reported only when at least minBeyond samples lie beyond it.
// The percentile is fixed per workload and never switches with the count.
func tailPercentile(xs []float64, p float64, minBeyond int) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g has %d samples beyond it out of %d, need %d", p, beyond, len(xs), minBeyond)
	}
	return v, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unmodified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timed is one operation as the window statistics see it.
type timed struct {
	end time.Duration // completion, since the window opened
	ms  float64       // latency; +Inf for an op that did not verify
}

// summary is what a timed window reports.
type summary struct {
	rps, p50, tail float64
	cpuMsPerOp     float64 // the daemons' CPU over the ops of the slices used
	slices, used   int     // slices in the window; calm slices the figures come from
	stealPct       float64 // the host's CPU steal over the whole window
	sliceSteal     []float64
	sliceRPS       []float64
}

// windowSummary summarises a timed window robustly against interference
// from other guests of the host. The ops (sorted by completion) are cut
// into slices — consecutive groups of cycle ops when cycle > 1, else the
// ops completing in each sliceWidth of time. between gives each slice's CPU steal and the
// daemons' CPU time. If the calm slices (steal at most calmSteal) last at
// least need together, the figures come from them alone, else from every
// slice. Throughput and the median are the medians of the per-slice
// values, the tail is the p-th percentile of every op of the slices used,
// and CPU per op is their daemon CPU over their op count.
func windowSummary(ops []timed, cycle int, p float64, need time.Duration, between func(from, to time.Duration) (float64, time.Duration)) (summary, error) {
	if len(ops) == 0 {
		return summary{}, fmt.Errorf("no operations in the window")
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].end < ops[b].end })
	var slices [][]timed
	for i, o := range ops {
		k := int(o.end / sliceWidth)
		if cycle > 1 {
			k = i / cycle
		}
		for len(slices) <= k {
			slices = append(slices, nil)
		}
		slices[k] = append(slices[k], o)
	}
	type slice struct {
		lat       []float64
		rate, p50 float64
		cpu       time.Duration
	}
	var all, calm []slice
	var sum summary
	var prevEnd, calmTime time.Duration
	for _, s := range slices {
		if len(s) == 0 {
			continue // a stall: its time goes to the next slice
		}
		// A slice runs from the previous slice's last completion to its own.
		from, to := prevEnd, s[len(s)-1].end
		prevEnd = to
		steal, cpu := between(from, to)
		sl := slice{cpu: cpu}
		ok := 0
		for _, o := range s {
			sl.lat = append(sl.lat, o.ms)
			if !math.IsInf(o.ms, 1) {
				ok++
			}
		}
		sl.rate = float64(ok) / (to - from).Seconds()
		sl.p50, _ = percentile(append([]float64(nil), sl.lat...), 50)
		all = append(all, sl)
		sum.sliceSteal = append(sum.sliceSteal, steal)
		sum.sliceRPS = append(sum.sliceRPS, sl.rate)
		if steal <= calmSteal {
			calm = append(calm, sl)
			calmTime += to - from
		}
	}
	use := calm
	if calmTime < need {
		use = all
	}
	var rates, meds, lat []float64
	var cpu time.Duration
	for _, sl := range use {
		rates = append(rates, sl.rate)
		meds = append(meds, sl.p50)
		lat = append(lat, sl.lat...)
		cpu += sl.cpu
	}
	tail, err := tailPercentile(lat, p, minBeyond)
	if err != nil {
		return summary{}, err
	}
	sum.rps, sum.p50, sum.tail = median(rates), median(meds), tail
	sum.cpuMsPerOp = float64(cpu) / float64(time.Millisecond) / float64(len(lat))
	sum.slices, sum.used = len(all), len(use)
	sum.stealPct, _ = between(0, prevEnd)
	return sum, nil
}

// tally is the outcome accounting of one timed window. Every attempted
// operation is exactly one of: verified, failed (transport error, non-2xx
// status other than a refusal, or a body that differs from the reference)
// or refused (429/503). Only verified operations count as throughput.
type tally struct {
	Attempted int
	Failed    int // every op that did not verify, refused ones included
	Refused   int // the subset of Failed that the server refused (429/503)
	Mismatch  int // the subset of Failed whose body differed from the reference
}

// Verified is the number of operations that completed with a correct body.
func (t tally) Verified() int { return t.Attempted - t.Failed }

// add records one operation outcome.
func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case outcomeOK:
	case outcomeRefused:
		t.Failed++
		t.Refused++
	case outcomeMismatch:
		t.Failed++
		t.Mismatch++
	default:
		t.Failed++
	}
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeError
	outcomeRefused
	outcomeMismatch
)

// classify maps an HTTP status onto an outcome before the body is checked.
func classify(status int) outcome {
	switch {
	case status == 429 || status == 503:
		return outcomeRefused
	case status < 200 || status > 299:
		return outcomeError
	}
	return outcomeOK
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID     int32
	Parent int32 // 0 for a root span
	Op     int32 // the operation the span belongs to
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTimes returns each span's duration minus the union of its children's
// intervals, clipped to the span. Children of a parallel pool overlap, so
// summing their durations would overcount; the union does not.
func selfTimes(spans []span) map[int32]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered measures the part of [lo, hi) covered by the union of the
// intervals of kids.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// checkStream rejects a key stream in which an LRU cache of n entries could
// serve an operation: a key that comes back before n other distinct keys
// have passed (only then has the LRU evicted it).
func checkStream(keys []string, n int) error {
	last := make(map[string]int, len(keys))
	for i, k := range keys {
		if j, ok := last[k]; ok {
			between := make(map[string]bool)
			for _, b := range keys[j+1 : i] {
				between[b] = true
			}
			if len(between) < n {
				return fmt.Errorf("key %q repeats at positions %d and %d with %d distinct keys between, within reach of a cache of %d entries", k, j, i, len(between), n)
			}
		}
		last[k] = i
	}
	return nil
}
