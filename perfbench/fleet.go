package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peerSpec describes one accelwalld process of a fleet.
type peerSpec struct {
	gomaxprocs int
	args       []string // flags beyond -addr; "{self}" and "{peers}" are substituted
	jobs       bool     // give the peer its own -jobs directory
}

// daemon is one running accelwalld child process.
type daemon struct {
	url  string
	dir  string // the peer's private directory (jobs, log)
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // the process's exit status, valid after done
}

// fleet is the set of daemons one workload runs against; peers[0] is the
// one the generator talks to.
type fleet struct {
	peers  []*daemon
	client *http.Client
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; nothing else on the host races for it
// in practice.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns a keep-alive client that opens at most conns
// connections per daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// startFleet launches one daemon per spec under dir and waits until every
// one answers /readyz with 200. On error every started daemon is stopped.
func startFleet(ctx context.Context, bin, dir string, specs []peerSpec, conns int) (*fleet, error) {
	urls := make([]string, len(specs))
	ports := make([]int, len(specs))
	for i := range specs {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(p)
	}
	f := &fleet{client: newClient(conns)}
	for i, spec := range specs {
		d := &daemon{url: urls[i], dir: filepath.Join(dir, fmt.Sprintf("peer%d", i)), done: make(chan struct{})}
		if err := os.MkdirAll(d.dir, 0o700); err != nil {
			f.stop()
			return nil, err
		}
		args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(ports[i])}
		for _, a := range spec.args {
			a = strings.ReplaceAll(a, "{self}", urls[i])
			a = strings.ReplaceAll(a, "{peers}", strings.Join(urls, ","))
			args = append(args, a)
		}
		if spec.jobs {
			args = append(args, "-jobs", filepath.Join(d.dir, "jobs"))
		}
		logf, err := os.Create(filepath.Join(d.dir, "accelwalld.log"))
		if err != nil {
			f.stop()
			return nil, err
		}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(spec.gomaxprocs))
		d.cmd.Stdout, d.cmd.Stderr = logf, logf
		// The daemon dies with the benchmark even if the benchmark is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			logf.Close()
			f.stop()
			return nil, fmt.Errorf("starting accelwalld: %w", err)
		}
		go func() {
			d.err = d.cmd.Wait()
			logf.Close()
			close(d.done)
		}()
		f.peers = append(f.peers, d)
	}
	for _, d := range f.peers {
		if err := f.waitReady(ctx, d); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// waitReady polls /readyz every 2 ms until it answers 200.
func (f *fleet) waitReady(ctx context.Context, d *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("accelwalld exited before ready: %v (log: %s)", d.err, filepath.Join(d.dir, "accelwalld.log"))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := f.client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("accelwalld at %s not ready after 30s", d.url)
}

// stop sends SIGTERM to every daemon and waits for each to exit, killing
// any that has not drained within 15 s. It reports the first unclean exit.
func (f *fleet) stop() error {
	if f == nil {
		return nil
	}
	var first error
	for _, d := range f.peers {
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is fine
	}
	for _, d := range f.peers {
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck // waited for below
			<-d.done
		}
		if d.err != nil && first == nil {
			first = fmt.Errorf("accelwalld %s: %v", d.url, d.err)
		}
	}
	f.client.CloseIdleConnections()
	f.peers = nil
	return first
}

// do sends one request to peer i and returns the status and the body.
func (f *fleet) do(ctx context.Context, i int, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.peers[i].url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metrics fetches peer i's /v1/metrics tree.
func (f *fleet) metrics(ctx context.Context, i int) (tree, error) {
	status, b, err := f.do(ctx, i, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics: status %d", status)
	}
	var t tree
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("/v1/metrics: %w", err)
	}
	return t, nil
}

// tree is a decoded /v1/metrics document.
type tree map[string]any

// num reads the number at path, 0 when absent.
func (t tree) num(path ...string) float64 {
	var cur any = map[string]any(t)
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[p]
	}
	v, _ := cur.(float64)
	return v
}

// procUsage is a sample of one process's CPU time and peak resident set.
type procUsage struct {
	cpu    time.Duration
	hwmMiB float64
	rssMiB float64
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// usage reads a daemon's user+system CPU time and VmHWM from /proc.
func (d *daemon) usage() (procUsage, error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return procUsage{}, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return procUsage{}, err
	}
	hwm, err := d.statusMiB("VmHWM")
	if err != nil {
		return procUsage{}, err
	}
	rss, err := d.statusMiB("VmRSS")
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{cpu: time.Duration(ut+st) * clockTick, hwmMiB: hwm, rssMiB: rss}, nil
}

// statusMiB reads one kB-valued field of the daemon's /proc status, in MiB.
func (d *daemon) statusMiB(field string) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, d.cmd.Process.Pid)
}

// usage sums CPU time and peak RSS over every peer.
func (f *fleet) usage() (procUsage, error) {
	var sum procUsage
	for _, d := range f.peers {
		u, err := d.usage()
		if err != nil {
			return procUsage{}, err
		}
		sum.cpu += u.cpu
		sum.hwmMiB += u.hwmMiB
		sum.rssMiB += u.rssMiB
	}
	return sum, nil
}
