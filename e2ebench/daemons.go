package main

import (
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
	"strings"
	"syscall"
	"time"

	"webslice/internal/obs"
)

// spanRing is the -trace-spans capacity of a traced daemon. A job records
// about fifteen spans, so the ring holds a few thousand jobs, more than any
// window completes; dropped spans are detected, not assumed away.
const spanRing = 1 << 16

// daemon is one running websliced process.
type daemon struct {
	role string // "daemon", "coordinator", "worker1", "worker2"
	base string // http://127.0.0.1:port
	args []string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed when the process has exited
}

// fleet is the set of daemons one setup launched, with the directory that
// holds their stores, journals and logs.
type fleet struct {
	dir     string
	daemons []*daemon
	entry   *daemon // the daemon clients submit to
	traced  bool
}

// launch starts the workload's daemons in a fresh directory under work and
// waits until they are healthy (and, for a cluster, until the coordinator
// sees both workers alive). On error, whatever was started is stopped.
func launch(ctx context.Context, bin, work string, w workload, traced bool) (f *fleet, err error) {
	runs := filepath.Join(work, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runs, w.name+"-")
	if err != nil {
		return nil, err
	}
	f = &fleet{dir: dir, traced: traced}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()
	if !w.cluster {
		d, err := f.start(ctx, bin, "daemon")
		if err != nil {
			return f, err
		}
		f.entry = d
		return f, nil
	}
	var peers []string
	for _, role := range []string{"worker1", "worker2"} {
		d, err := f.start(ctx, bin, role)
		if err != nil {
			return f, err
		}
		peers = append(peers, d.base)
	}
	co, err := f.start(ctx, bin, "coordinator", "-coordinator", "-peers", strings.Join(peers, ","))
	if err != nil {
		return f, err
	}
	f.entry = co
	return f, waitMembers(ctx, co, len(peers))
}

// start launches one daemon with default flags, apart from its own address,
// store and journal, and waits for /healthz.
func (f *fleet) start(ctx context.Context, bin, role string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr,
		"-store", filepath.Join(f.dir, role+"-store"),
		"-journal", filepath.Join(f.dir, role+".journal"),
	}
	if f.traced {
		args = append(args, "-trace-spans", fmt.Sprint(spanRing))
	}
	args = append(args, extra...)
	d := &daemon{role: role, base: "http://" + addr, args: args, log: filepath.Join(f.dir, role+".log"), done: make(chan struct{})}
	logf, err := os.Create(d.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// A daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	f.daemons = append(f.daemons, d)
	return d, waitHealthy(ctx, d)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

var probe = &http.Client{Timeout: 2 * time.Second}

func waitHealthy(ctx context.Context, d *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up:\n%s", d.role, tail(d.log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after 30s:\n%s", d.role, tail(d.log))
}

// waitMembers waits until the coordinator's ring holds n live workers.
func waitMembers(ctx context.Context, co *daemon, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var topo struct {
			RingSize int `json:"ring_size"`
			Members  []struct {
				Alive bool `json:"alive"`
			} `json:"members"`
		}
		if err := getJSON(probe, co.base+"/cluster", &topo); err == nil && topo.RingSize == n {
			alive := 0
			for _, m := range topo.Members {
				if m.Alive {
					alive++
				}
			}
			if alive == n {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("coordinator never saw %d live workers", n)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stop kills every daemon, waits for each to exit, and removes the
// fleet's directory.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, d := range f.daemons {
		d.cmd.Process.Kill()
	}
	for _, d := range f.daemons {
		<-d.done
	}
	f.daemons = nil
	os.RemoveAll(f.dir)
}

// alive reports an error naming the first daemon that has exited.
func (f *fleet) alive() error {
	for _, d := range f.daemons {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited:\n%s", d.role, tail(d.log))
		default:
		}
	}
	return nil
}

// cpuTicks sums utime+stime over every daemon.
func (f *fleet) cpuTicks() (int64, error) {
	var sum int64
	for _, d := range f.daemons {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		t, err := parseStatCPU(string(b))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.role, err)
		}
		sum += t
	}
	return sum, nil
}

// peakRSSKiB is the largest VmHWM of any daemon.
func (f *fleet) peakRSSKiB() (int64, error) {
	var peak int64
	for _, d := range f.daemons {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kib, err := parseVmHWM(string(b))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.role, err)
		}
		peak = max(peak, kib)
	}
	return peak, nil
}

// metrics scrapes /metrics of every daemon, keyed by role.
func (f *fleet) metrics() (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64, len(f.daemons))
	for _, d := range f.daemons {
		resp, err := probe.Get(d.base + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", d.role, err)
		}
		out[d.role] = parseMetrics(string(b))
	}
	return out, nil
}

// spans pulls every daemon's span ring. A ring that wrapped would have
// dropped spans, so a full ring is an error.
func (f *fleet) spans() ([]obs.SpanData, error) {
	var all []obs.SpanData
	for _, d := range f.daemons {
		resp, err := probe.Get(d.base + "/debug/spans")
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(resp.Body)
		n := 0
		for {
			var s obs.SpanData
			if err := dec.Decode(&s); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				resp.Body.Close()
				return nil, fmt.Errorf("%s /debug/spans: %w", d.role, err)
			}
			all = append(all, s)
			n++
		}
		resp.Body.Close()
		if n >= spanRing {
			return nil, fmt.Errorf("%s span ring is full (%d spans): spans were dropped", d.role, n)
		}
	}
	return all, nil
}

// flags describes the daemon command lines, with the per-run directory
// replaced by a placeholder.
func (f *fleet) flags() map[string]string {
	out := make(map[string]string, len(f.daemons))
	for _, d := range f.daemons {
		out[d.role] = strings.ReplaceAll(strings.Join(d.args, " "), f.dir, "$RUN")
	}
	return out
}

// tail returns the last lines of a daemon log for an error report.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
