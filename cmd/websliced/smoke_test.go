package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"webslice/internal/experiments"
	"webslice/internal/obs"
	"webslice/internal/service"
)

// TestMultiNodeSmoke is the cluster's end-to-end exercise with real
// processes: it builds the daemon, boots a coordinator fronting two
// workers on loopback ports, scatters the golden corpus through the
// coordinator, SIGKILLs one worker mid-run, and asserts that every acked
// job still reaches a terminal state with its slice digest matching the
// corpus's pinned value. A second pass over the corpus then repeats every
// job: the coordinator routes each by rendering identity to the surviving
// worker, which finished all of them in the first pass, so each must be a
// result-cache hit with its pinned digest and no render in its merged span
// tree. It needs `go build` and a couple of minutes, so it only runs when
// ci.sh (or a developer) opts in:
//
//	WEBSLICE_CLUSTER_SMOKE=1 go test -run TestMultiNodeSmoke ./cmd/websliced
func TestMultiNodeSmoke(t *testing.T) {
	if os.Getenv("WEBSLICE_CLUSTER_SMOKE") != "1" {
		t.Skip("set WEBSLICE_CLUSTER_SMOKE=1 to run the real-process cluster smoke test")
	}

	bin := filepath.Join(t.TempDir(), "websliced")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building websliced: %v\n%s", err, out)
	}

	addrs := freeAddrs(t, 3)
	w1 := startDaemon(t, bin, "-addr", addrs[0], "-store", "", "-workers", "2", "-trace-spans", "4096")
	startDaemon(t, bin, "-addr", addrs[1], "-store", "", "-workers", "2", "-trace-spans", "4096")
	peers := "http://" + addrs[0] + ",http://" + addrs[1]
	startDaemon(t, bin, "-addr", addrs[2], "-store", "", "-workers", "2", "-trace-spans", "4096",
		"-coordinator", "-peers", peers, "-probe-interval", "50ms", "-probe-fails", "2")
	base := "http://" + addrs[2]
	for _, a := range addrs {
		waitHealthy(t, "http://"+a)
	}

	corpus, err := experiments.LoadGolden("../../examples/golden/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range corpus.Sites {
		ids = append(ids, submitGolden(t, base, e))
	}

	// Kill a worker while the batch is in flight. Any job it owned — even
	// one it had already finished — must be recomputed elsewhere.
	if err := w1.Process.Kill(); err != nil {
		t.Fatalf("killing worker 1: %v", err)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for i, e := range corpus.Sites {
		res := awaitResult(t, base, ids[i], e.Label(), deadline)
		if res.SliceDigest != e.Pixels {
			t.Errorf("%s: digest %s, want pinned %s", e.Label(), res.SliceDigest, e.Pixels)
		}
	}

	for _, e := range corpus.Sites {
		id := submitGolden(t, base, e)
		res := awaitResult(t, base, id, e.Label(), deadline)
		if !res.CacheHit || res.SliceDigest != e.Pixels {
			t.Errorf("%s repeat: cache_hit %t, digest %s; want a hit with pinned %s", e.Label(), res.CacheHit, res.SliceDigest, e.Pixels)
		}
		hits := 0
		for _, s := range jobTrace(t, base, id) {
			if s.Name == "render" {
				t.Errorf("%s repeat: rendered, want a result-cache hit", e.Label())
			}
			if s.Name == "store.get" && spanAttr(s, "kind") == "result" && spanAttr(s, "hit") == "true" {
				hits++
			}
		}
		if hits != 1 {
			t.Errorf("%s repeat: %d store.get kind=result hit=true spans, want 1", e.Label(), hits)
		}
	}
}

// jobTrace fetches a coordinator job's merged span tree.
func jobTrace(t *testing.T, base, id string) []obs.SpanData {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatalf("trace of %s: %v", id, err)
	}
	defer resp.Body.Close()
	var spans []obs.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of %s: HTTP %d (%v)", id, resp.StatusCode, err)
	}
	return spans
}

// spanAttr returns the value of a span attribute ("" when absent).
func spanAttr(s obs.SpanData, k string) string {
	for _, a := range s.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// submitGolden submits one golden corpus entry's pixel job to the
// coordinator and returns its job id.
func submitGolden(t *testing.T, base string, e experiments.GoldenEntry) string {
	t.Helper()
	spec, _ := json.Marshal(service.Spec{Site: e.Name, Scale: e.Scale, Seed: e.Seed, Criteria: "pixels"})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("submit %s: %v", e.Label(), err)
	}
	var out struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || out.ID == "" {
		t.Fatalf("submit %s: HTTP %d (%v)", e.Label(), resp.StatusCode, err)
	}
	return out.ID
}

// awaitResult polls one coordinator job to completion and returns its
// result.
func awaitResult(t *testing.T, base, id, label string, deadline time.Time) *service.Result {
	t.Helper()
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatalf("%s: status poll: %v", label, err)
		}
		var info service.Info
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding status: %v", label, err)
		}
		if info.Status.Terminal() {
			if info.Status != service.StatusDone {
				t.Fatalf("%s: job %s ended %s: %s", label, id, info.Status, info.Error)
			}
			resp, err := http.Get(base + "/jobs/" + id + "/result")
			if err != nil {
				t.Fatalf("%s: result fetch: %v", label, err)
			}
			var res service.Result
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: result: HTTP %d (%v)", label, resp.StatusCode, err)
			}
			return &res
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s: job %s not terminal before deadline", label, id)
	return nil
}

// freeAddrs reserves n distinct loopback addresses by binding and
// releasing ephemeral ports.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l.Addr().String()
		l.Close()
	}
	return out
}

// startDaemon launches one websliced process and registers its teardown.
func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("daemon %v logs:\n%s", args, logs.String())
		}
	})
	return cmd
}

// waitHealthy blocks until a daemon answers /healthz with 200.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy", base)
}
