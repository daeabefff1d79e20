package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The jobs-replicated workload: durable jobs on the first of two peers,
// each checked against the synchronous endpoint, which scatters search
// generations across both peers.

const (
	jobPoll         = 2 * time.Millisecond // fixed GET /v1/jobs/{id} polling interval
	jobReplicates   = 32                   // replicates of an uncertainty job
	jobUncertEvery  = 10                   // checkpoint_every of uncertainty jobs (replicates)
	jobSearchEvery  = 4                    // checkpoint_every of search jobs (generations)
	jobGenerations  = 24
	jobPopulation   = 48
	replicaSettleIn = 5 * time.Second
)

// jobSpec is one durable job: its kind and the synchronous request body it
// embeds.
type jobSpec struct {
	kind        string // "uncertainty" | "search"
	uncertainty uncertaintySpec
	search      searchSpec
}

func (j jobSpec) key() string {
	if j.kind == "uncertainty" {
		return fmt.Sprintf("uncertainty:%d:%d", j.uncertainty.CorpusSeed, j.uncertainty.Seed)
	}
	return fmt.Sprintf("search:%s@%d:%d", j.search.Workload, j.search.Size, j.search.Seed)
}

// body is the synchronous endpoint's request body.
func (j jobSpec) body() []byte {
	if j.kind == "uncertainty" {
		return mustJSON(j.uncertainty)
	}
	return mustJSON(j.search)
}

// submission is the POST /v1/jobs body, with a small checkpoint_every so
// every job writes several snapshots and replica pushes.
func (j jobSpec) submission() []byte {
	every := jobUncertEvery
	if j.kind == "search" {
		every = jobSearchEvery
	}
	return []byte(fmt.Sprintf(`{"kind": %q, "checkpoint_every": %d, %q: %s}`, j.kind, every, j.kind, j.body()))
}

func (j jobSpec) ref(ctx context.Context) ([]byte, error) {
	if j.kind == "uncertainty" {
		return refUncertainty(ctx, j.uncertainty)
	}
	return refSearch(ctx, j.search)
}

// jobRound is a jobs-replicated op: an uncertainty job with replicate seed
// useed and a search job on key k, submitted back to back so the second
// waits in the job queue behind the first. A round, not a single job, is
// the op: the two kinds differ several-fold in cost, and alternating single
// jobs would put the median in the gap between them.
func jobRound(useed int64, k coldKey, i int) [2]jobSpec {
	return [2]jobSpec{
		{kind: "uncertainty", uncertainty: uncertaintySpec{
			Replicates: jobReplicates, Seed: useed, CorpusSeed: int64(i%3 + 1), CMOSJitter: 0.03}},
		// A fixed search seed keeps each key's search work the same in
		// every run; the key itself is never resident (see jobsPlan).
		{kind: "search", search: searchSpec{
			Workload: k.workload, Size: k.size, Population: jobPopulation, Generations: jobGenerations, Seed: 1}},
	}
}

// errJobMismatch marks a job whose result differs from the synchronous body.
var errJobMismatch = errors.New("job result differs from the synchronous endpoint's body")

// jobView is the part of GET /v1/jobs/{id} the generator reads.
type jobView struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// jobTimes are the client-side observations of one job.
type jobTimes struct {
	submitted, started, done time.Time // started: first poll past "pending"
	syncStart, syncEnd       time.Time // the synchronous request of the same body
}

// runRound submits both jobs to peer 0, polls them every jobPoll until both
// are done, then sends each body to the synchronous endpoint and checks
// the job result is byte-identical to it (after compaction: the job view
// re-indents the embedded result). It returns the two synchronous bodies
// concatenated, the body the reference check hashes.
func runRound(ctx context.Context, f *fleet, round [2]jobSpec, ids chan<- string, times *[2]jobTimes) (int, []byte, error) {
	var idv [2]string
	for k, j := range round {
		status, body, err := f.do(ctx, 0, "POST", "/v1/jobs", j.submission())
		if err != nil || status != http.StatusAccepted {
			return status, body, err
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &acc); err != nil {
			return 0, nil, fmt.Errorf("job submission: %w", err)
		}
		idv[k] = acc.ID
		if times != nil {
			times[k].submitted = time.Now()
		}
		if ids != nil {
			ids <- acc.ID
		}
	}
	var views [2]jobView
	for views[0].State != "done" || views[1].State != "done" {
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-time.After(jobPoll):
		}
		for k := range idv {
			if views[k].State == "done" {
				continue
			}
			status, body, err := f.do(ctx, 0, "GET", "/v1/jobs/"+idv[k], nil)
			if err != nil || status != http.StatusOK {
				return status, body, err
			}
			if err := json.Unmarshal(body, &views[k]); err != nil {
				return 0, nil, fmt.Errorf("job view: %w", err)
			}
			switch views[k].State {
			case "failed":
				return 0, nil, fmt.Errorf("job %s failed: %s", idv[k], views[k].Error)
			case "pending":
			default:
				if times != nil && times[k].started.IsZero() {
					times[k].started = time.Now()
				}
				if views[k].State == "done" && times != nil {
					times[k].done = time.Now()
				}
			}
		}
	}
	var out []byte
	for k, j := range round {
		t0 := time.Now()
		status, sync, err := f.do(ctx, 0, "POST", "/v1/"+j.kind, j.body())
		if times != nil {
			times[k].syncStart, times[k].syncEnd = t0, time.Now()
		}
		if err != nil || status != http.StatusOK {
			return status, sync, err
		}
		var a, b bytes.Buffer
		if err := errors.Join(json.Compact(&a, views[k].Result), json.Compact(&b, sync)); err != nil {
			return 0, nil, err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return 0, nil, fmt.Errorf("%w: %s", errJobMismatch, idv[k])
		}
		out = append(out, sync...)
	}
	return http.StatusOK, out, nil
}

func jobsPlan(seed int64) (*plan, error) {
	// Search keys in a fixed order, so every run searches the same keys;
	// the 99 keys outnumber the engine cache (32) and the search memo (64),
	// and a window of rounds never wraps around them.
	keys := coldKeys()
	ids := make(chan string, 1<<16) // ids of jobs submitted; far more than a window can submit
	var rounds sync.Map             // refKey -> [2]jobSpec
	mk := func(r [2]jobSpec, ids chan<- string) op {
		key := r[0].key() + "+" + r[1].key()
		rounds.Store(key, r)
		return op{family: "job-round", refKey: key, do: func(ctx context.Context, f *fleet) (int, []byte, error) {
			return runRound(ctx, f, r, ids, nil)
		}}
	}
	return &plan{
		op: func(i int) op {
			return mk(jobRound(seed<<32|int64(i+1), keys[i%len(keys)], i), ids)
		},
		cycle:     1,
		digestOps: 4,
		warm: func(ctx context.Context, f *fleet) error {
			// A replicate seed and a search key (size 0) the ops never use.
			r := jobRound(warmSeed(seed, 0), coldKey{"RED", 0}, 0)
			return warmAll(ctx, f, []op{mk(r, nil)})
		},
		ref: func(ctx context.Context, key string) ([]byte, error) {
			v, ok := rounds.Load(key)
			if !ok {
				return nil, fmt.Errorf("unknown key %q", key)
			}
			var out []byte
			for _, j := range v.([2]jobSpec) {
				b, err := j.ref(ctx)
				if err != nil {
					return nil, err
				}
				out = append(out, b...)
			}
			return out, nil
		},
		premise: func(d delta, s *windowStats) error {
			if v := d.of(0, "cluster", "slices_sent"); v <= 0 {
				return fmt.Errorf("no slices sent to the peer in the window")
			}
			if v := d.of(1, "cluster", "slices_served"); v <= 0 {
				return fmt.Errorf("the peer served no slices in the window")
			}
			for _, c := range []string{"hedges", "steals", "scatter_fails"} {
				if v := d.of(0, "cluster", c); v != 0 {
					return fmt.Errorf("cluster %s in the window: %g, want 0", c, v)
				}
			}
			close(ids)
			var want []string
			for id := range ids {
				want = append(want, id)
			}
			return awaitReplicas(filepath.Join(s.fleet.peers[1].dir, "jobs", "replicas"), want)
		},
	}, nil
}

// awaitReplicas checks that every job in ids has a replica in dir, the
// peer's replica store, waiting a bounded time for in-flight pushes.
func awaitReplicas(dir string, ids []string) error {
	deadline := time.Now().Add(replicaSettleIn)
	for {
		entries, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		have := make(map[string]bool, len(entries))
		for _, e := range entries {
			id, _, _ := strings.Cut(e.Name(), ".")
			have[id] = true
		}
		var missing []string
		for _, id := range ids {
			if !have[id] {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d jobs have no replica on the peer (first: %s)", len(missing), len(ids), missing[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
