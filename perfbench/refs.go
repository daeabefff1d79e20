package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"accelwall/internal/cmos"
	"accelwall/internal/core"
	"accelwall/internal/csr"
	"accelwall/internal/dfg"
	"accelwall/internal/gains"
	"accelwall/internal/montecarlo"
	"accelwall/internal/projection"
	"accelwall/internal/search"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// The reference bodies below are built from the model's public functions
// and encoded exactly as the daemon encodes a response (two-space indent,
// trailing newline), so a correct daemon answer hashes identically.

// encodeBody renders v the way the daemon writes a JSON response.
func encodeBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sweepResponse mirrors the daemon's /v1/sweep payload.
type sweepResponse struct {
	Workload  string                   `json:"workload"`
	Objective string                   `json:"objective"`
	Evaluated int                      `json:"evaluated"`
	Cached    int                      `json:"cached_points"`
	Points    []core.SweepPointJSON    `json:"points,omitempty"`
	Best      *core.SweepPointJSON     `json:"best,omitempty"`
	Frontier  []core.FrontierPointJSON `json:"frontier,omitempty"`
}

// buildGraph builds a Table IV kernel at a problem size.
func buildGraph(workload string, size int) (*dfg.Graph, error) {
	spec, err := workloads.ByAbbrev(workload)
	if err != nil {
		return nil, err
	}
	return spec.Build(size)
}

// sweepBody renders the grid sweep a cold engine would serve: the engine
// has simulated nothing else, so cached_points is the grid's unique count.
func sweepBody(eng *sweep.Engine, workload string, pts []sweep.Point) ([]byte, error) {
	objective, err := core.ParseObjective("")
	if err != nil {
		return nil, err
	}
	resp := sweepResponse{Workload: workload, Objective: core.ObjectiveName(objective), Evaluated: len(pts), Cached: eng.CachedPoints()}
	if best, err := sweep.Best(pts, objective); err == nil {
		bj := core.NewSweepPointJSON(best)
		resp.Best = &bj
	}
	resp.Frontier = core.NewFrontierJSON(sweep.DesignFrontier(pts))
	return encodeBody(resp)
}

// refSweep is the reference body of a grid sweep on a fresh engine.
func refSweep(ctx context.Context, workload string, size int, grid sweep.Params) ([]byte, error) {
	g, err := buildGraph(workload, size)
	if err != nil {
		return nil, err
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		return nil, err
	}
	pts, err := eng.RunContext(ctx, grid, generatorProcs)
	if err != nil {
		return nil, err
	}
	return sweepBody(eng, workload, pts)
}

// searchSpec is a /v1/search body.
type searchSpec struct {
	Workload    string `json:"workload"`
	Size        int    `json:"size,omitempty"`
	Population  int    `json:"population"`
	Generations int    `json:"generations"`
	Seed        int64  `json:"seed"`
}

func (s searchSpec) config() search.Config {
	return search.Config{Population: s.Population, Generations: s.Generations, Seed: s.Seed}.Normalized()
}

// refSearch is the reference body of a search on a fresh engine.
func refSearch(ctx context.Context, s searchSpec) ([]byte, error) {
	g, err := buildGraph(s.Workload, s.Size)
	if err != nil {
		return nil, err
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		return nil, err
	}
	cfg := s.config()
	run := cfg
	run.Workers = generatorProcs
	res, err := search.RunContext(ctx, eng, run)
	if err != nil {
		return nil, err
	}
	return encodeBody(core.NewSearchJSON(s.Workload, cfg, res))
}

// uncertaintySpec is a /v1/uncertainty body.
type uncertaintySpec struct {
	Replicates int     `json:"replicates"`
	Seed       int64   `json:"seed"`
	CorpusSeed int64   `json:"corpus_seed"`
	CMOSJitter float64 `json:"cmos_jitter"`
}

func (u uncertaintySpec) config() montecarlo.Config {
	return montecarlo.Config{Replicates: u.Replicates, Seed: u.Seed, CorpusSeed: u.CorpusSeed, CMOSJitter: u.CMOSJitter}
}

// refUncertainty is the reference body of a Monte Carlo run.
func refUncertainty(ctx context.Context, u uncertaintySpec) ([]byte, error) {
	cfg := u.config()
	cfg.Workers = generatorProcs
	res, err := montecarlo.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return encodeBody(core.NewUncertaintyJSON(res))
}

// defaultStudy is the study the daemon fits for its default corpus seed.
var defaultStudy = sync.OnceValues(func() (*core.Study, error) { return core.New(1) })

// refCaseStudy is the reference body of GET /v1/casestudy/{name}.
func refCaseStudy(name string) ([]byte, error) {
	cs, err := core.CaseStudy(name)
	if err != nil {
		return nil, err
	}
	return encodeBody(cs)
}

// refExperiment is the reference body of GET /v1/experiments/{id}.
func refExperiment(id string) ([]byte, error) {
	st, err := defaultStudy()
	if err != nil {
		return nil, err
	}
	out, err := st.ExperimentJSON(id)
	if err != nil {
		return nil, err
	}
	return encodeBody(out)
}

// refCMOS is the reference body of GET /v1/cmos, or of ?node=nm when nm > 0.
func refCMOS(nm float64) ([]byte, error) {
	if nm > 0 {
		n, err := cmos.Lookup(nm)
		if err != nil {
			return nil, err
		}
		return encodeBody(core.NewCMOSNodeJSON(n))
	}
	var out []core.CMOSNodeJSON
	for _, nm := range cmos.Nodes() {
		n, err := cmos.Lookup(nm)
		if err != nil {
			return nil, err
		}
		out = append(out, core.NewCMOSNodeJSON(n))
	}
	return encodeBody(map[string]any{"nodes": out})
}

// refProjection is the reference body of GET /v1/projection.
func refProjection() ([]byte, error) {
	var out []core.ProjectionJSON
	for _, run := range []func() ([]projection.Projection, error){projection.Fig15, projection.Fig16} {
		projs, err := run()
		if err != nil {
			return nil, err
		}
		for _, p := range projs {
			out = append(out, core.NewProjectionJSON(p))
		}
	}
	return encodeBody(map[string]any{"projections": out})
}

// csrBody is the serve-warm CSR request: two generations of one chip.
const csrBody = `{"target": "performance", "observations": [
 {"name": "gen1", "gain": 1.0, "year": 2006, "chip": {"node_nm": 65, "die_mm2": 10, "tdp_w": 5, "freq_ghz": 0.35}},
 {"name": "gen2", "gain": 8.0, "year": 2012, "chip": {"node_nm": 28, "die_mm2": 10, "tdp_w": 5, "freq_ghz": 0.5}}]}`

// refCSR is the reference body of csrBody under the default study.
func refCSR() ([]byte, error) {
	st, err := defaultStudy()
	if err != nil {
		return nil, err
	}
	obs := []csr.Observation{
		{Name: "gen1", Gain: 1, Year: 2006, Chip: gains.Config{NodeNM: 65, DieMM2: 10, TDPW: 5, FreqGHz: 0.35}},
		{Name: "gen2", Gain: 8, Year: 2012, Chip: gains.Config{NodeNM: 28, DieMM2: 10, TDPW: 5, FreqGHz: 0.5}},
	}
	rows, err := csr.Analyze(st.Gains, gains.TargetThroughput, obs, 0)
	if err != nil {
		return nil, err
	}
	return encodeBody(map[string]any{"target": core.TargetName(gains.TargetThroughput), "rows": core.NewCSRRows(rows)})
}

// mustJSON marshals a request body built from fixed types.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return b
}
