package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50}, {90, 90, 10}, {95, 95, 5}, {99, 99, 1}, {100, 100, 0}, {1, 1, 99},
	} {
		got, beyond := percentile(append([]float64(nil), xs...), c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
}

func TestTailPercentileIsFixed(t *testing.T) {
	// 200 samples: p95 has exactly 10 beyond it and is reported.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, err := tailPercentile(append([]float64(nil), xs...), 95, minBeyond)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %g, %v; want 190", v, err)
	}
	// With fewer samples the same percentile is refused, never swapped for
	// a lower one.
	if _, err := tailPercentile(xs[:150], 95, minBeyond); err == nil {
		t.Fatal("p95 of 150 samples (7 beyond) was reported")
	}
}

func TestFailuresCountAsMissingLatency(t *testing.T) {
	// A failed op enters the latency sample as +Inf, so it lands beyond
	// every percentile instead of being dropped.
	xs := []float64{1, 2, 3, math.Inf(1)}
	if v, _ := percentile(xs, 100); !math.IsInf(v, 1) {
		t.Fatalf("max = %g, want +Inf", v)
	}
}

func TestTallyAccounting(t *testing.T) {
	var tl tally
	for _, o := range []outcome{outcomeOK, outcomeOK, classify(429), classify(503), classify(500), classify(404), outcomeMismatch, classify(200), outcomeError} {
		tl.add(o)
	}
	if tl.Attempted != 9 || tl.Failed != 6 || tl.Refused != 2 || tl.Mismatch != 1 || tl.Verified() != 3 {
		t.Fatalf("tally = %+v verified %d; want 9 attempted, 6 failed (2 refused, 1 mismatched), 3 verified", tl, tl.Verified())
	}
	if classify(202) != outcomeOK || classify(301) != outcomeError {
		t.Fatal("2xx must pass the status check and 3xx must fail it")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		// Two pool workers run in parallel: [10,50) and [30,70) overlap,
		// so together they cover 60 ms, not 80.
		{ID: 2, Parent: 1, Name: "worker", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "worker", Start: ms(30), End: ms(70)},
		// A disjoint child, and a child that outlives its parent (clipped).
		{ID: 4, Parent: 1, Name: "encode", Start: ms(80), End: ms(90)},
		{ID: 5, Parent: 1, Name: "late", Start: ms(95), End: ms(120)},
		// A grandchild counts against its parent only.
		{ID: 6, Parent: 2, Name: "kernel", Start: ms(20), End: ms(40)},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]time.Duration{1: ms(25), 2: ms(20), 3: ms(40), 4: ms(10), 5: ms(25), 6: ms(20)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestColdStreamsStayOutOfCacheReach(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		if err := checkColdStreams(coldCycle(seed)); err != nil {
			t.Fatalf("seed %d: the explore-cold stream is invalid: %v", seed, err)
		}
	}
	// Searches take a new seed every cycle, so none repeats in a run.
	keys := coldCycle(1)
	_, _, searches := coldStreams(keys, 3*len(keys))
	if len(searches) != 33 || searches[0] == searches[11] {
		t.Fatalf("searches of the first three cycles: %v", searches)
	}
	// A key repeated inside the cycle, 20 keys after its first use.
	rep := append([]coldKey(nil), keys...)
	rep[30] = rep[10]
	if err := checkColdStreams(rep); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("a repeated key was not detected: %v", err)
	}
	// A cycle shorter than a cache: every key is still resident next cycle.
	if err := checkColdStreams(keys[:40]); err == nil {
		t.Fatal("a 40-key cycle passed a 64-entry cache")
	}
}

func TestStreamReach(t *testing.T) {
	s := []string{"a", "b", "c", "a"}
	if err := checkStream(s, 2); err != nil {
		t.Fatalf("a key two distinct keys apart is out of reach of a 2-entry LRU: %v", err)
	}
	if err := checkStream(s, 3); err == nil {
		t.Fatal("a key two distinct keys apart was let past a 3-entry LRU")
	}
	// Repeats between do not count as distinct keys.
	if err := checkStream([]string{"a", "b", "b", "b", "a"}, 2); err == nil {
		t.Fatal("repeats of one key counted as several distinct keys")
	}
}

// quiet is a host on which no slice has steal and the daemons use 1 ms of
// CPU per millisecond of window.
func quiet(from, to time.Duration) (float64, time.Duration) { return 0, to - from }

// evenSlices returns n ops of lat ms per 1 s slice for len(perSlice)
// slices, completions spread evenly, the last one at the slice's end.
func evenSlices(perSlice []int, lat []float64) []timed {
	var ops []timed
	for s, n := range perSlice {
		for k := 1; k <= n; k++ {
			ops = append(ops, timed{end: time.Duration(s)*time.Second + time.Duration(k)*time.Second/time.Duration(n) - time.Microsecond, ms: lat[s]})
		}
	}
	return ops
}

func TestWindowSummaryMediansOverSlices(t *testing.T) {
	// Ten ops per 1 s slice for 5 s at 10 ms each, except slice 2, which
	// a stall slowed to 2 ops of 400 ms; the median slice ignores it.
	ops := evenSlices([]int{10, 10, 2, 10, 10}, []float64{10, 10, 400, 10, 10})
	sum, err := windowSummary(ops, 1, 75, 3*time.Second, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if sum.rps != 10 || sum.p50 != 10 || sum.used != 5 {
		t.Fatalf("rps %g p50 %g from %d slices, want 10 and 10 from 5", sum.rps, sum.p50, sum.used)
	}
	// 5 s of CPU over 42 ops.
	if want := 5000.0 / 42; math.Abs(sum.cpuMsPerOp-want) > 1e-3 {
		t.Fatalf("cpu per op %g, want %g", sum.cpuMsPerOp, want)
	}
	// A slice in which nothing completed is a stall; its time goes to the
	// next slice, which then reads 5 ops/s.
	gap := evenSlices([]int{10, 10, 0, 10, 10}, []float64{10, 10, 0, 10, 10})
	if sum, err = windowSummary(gap, 1, 75, 3*time.Second, quiet); err != nil || sum.slices != 4 || math.Abs(sum.sliceRPS[2]-5) > 1e-3 {
		t.Fatalf("stall: %+v, %v; want 4 slices, the third at 5 ops/s", sum, err)
	}
	// Failed ops do not count as throughput.
	ops[0].ms = math.Inf(1)
	if sum, _ = windowSummary(ops, 1, 75, 3*time.Second, quiet); sum.rps != 10 {
		t.Fatalf("one failure in one slice moved the median rate to %g", sum.rps)
	}
}

func TestWindowSummaryDropsStolenSlices(t *testing.T) {
	// Slices 0 and 1 ran while the hypervisor stole 10% of the CPU: 5 ops
	// of 200 ms each. The three calm slices alone give every figure.
	ops := evenSlices([]int{5, 5, 20, 20, 20}, []float64{200, 200, 50, 50, 50})
	stolen := func(from, to time.Duration) (float64, time.Duration) {
		switch {
		case to-from > 2*time.Second:
			return 4, to - from // the whole window
		case (from+to)/2 < 2*time.Second:
			return 10, 3 * (to - from)
		}
		return 0.5, to - from
	}
	sum, err := windowSummary(ops, 1, 80, 2*time.Second, stolen)
	if err != nil {
		t.Fatal(err)
	}
	if sum.used != 3 || sum.slices != 5 || sum.rps != 20 || sum.p50 != 50 || sum.tail != 50 {
		t.Fatalf("got %+v, want 3 of 5 slices at 20 ops/s, p50 and p80 50 ms", sum)
	}
	if want := 3000.0 / 60; math.Abs(sum.cpuMsPerOp-want) > 0.01 {
		t.Fatalf("cpu per op %g, want %g (calm slices only)", sum.cpuMsPerOp, want)
	}
	// With too little calm time, every slice counts.
	ops = evenSlices([]int{5, 5, 5, 20, 20}, []float64{200, 200, 200, 50, 50})
	heavy := func(from, to time.Duration) (float64, time.Duration) {
		if (from+to)/2 < 3*time.Second {
			return 10, to - from
		}
		return 0, to - from
	}
	if sum, err = windowSummary(ops, 1, 50, 3*time.Second, heavy); err != nil || sum.used != 5 || math.Abs(sum.rps-5) > 1e-3 {
		t.Fatalf("got %+v, %v; want every slice used, median rate 5", sum, err)
	}
}
