// Command perfbench is the accelwalld benchmark. It starts real daemons,
// drives one of four closed-loop workloads against them, checks every
// response against a reference built in-process, and prints the end-to-end
// metrics; with -trace 1 it instead replays the workload in-process with
// spans around each layer call and prints the per-layer metrics.
//
// Run it from the repository root through its wrapper, which builds the
// daemon and this program first:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // path of the accelwalld binary
	workdir  string // working directory for daemon state and traces, inside the checkout
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// generatorProcs is the generator's GOMAXPROCS: the host has two CPUs and
// the generator must not claim more.
const generatorProcs = 2

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	runtime.GOMAXPROCS(min(generatorProcs, runtime.NumCPU()))
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: traced in-process run reporting per-layer metrics")
	fs.StringVar(&o.daemon, "daemon", "", "path of the accelwalld binary")
	fs.StringVar(&o.workdir, "workdir", "", "working directory for daemon state and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.daemon == "" || o.workdir == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -daemon, -workdir and a positive -seconds are required")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	code := 0
	for _, name := range names {
		w, ok := allWorkloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		if c := runOne(ctx, w, o); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its report and result line.
func runOne(ctx context.Context, w *workload, o options) int {
	rep := &report{}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(ctx, w, o, rep)
	} else {
		res, err = runE2E(ctx, w, o, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if rep.host != nil {
		h, err := json.Marshal(map[string]any{"host": rep.host})
		if err == nil {
			fmt.Println(string(h))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostRecord describes the machine a result was taken on. Every earlier
// BENCH_*.json file in the repository is a 1-CPU sample and must not be
// compared with these numbers.
func hostRecord(w *workload, o options) map[string]any {
	procs := make([]int, len(w.peers))
	for i, p := range w.peers {
		procs[i] = p.gomaxprocs
	}
	h := map[string]any{
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":    procs,
		"go_version":           runtime.Version(),
		"cpu_model":            cpuModel(),
		"workload":             w.name,
		"seed":                 o.seed,
	}
	for _, p := range w.peers {
		if p.jobs {
			h["jobs_medium"] = medium(o.workdir)
			break
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// medium reports whether dir lives on tmpfs or on disk.
func medium(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic = 0x01021994
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// runDir returns a fresh directory for one run's daemon or trace state.
func runDir(o options, name string) (string, error) {
	dir := filepath.Join(o.workdir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return "", err
	}
	return dir, nil
}
