package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"webslice/internal/browser"
	"webslice/internal/cluster"
	"webslice/internal/experiments"
	"webslice/internal/obs"
	"webslice/internal/service"
	"webslice/internal/store"
)

// startWorker serves a traced manager with an in-memory store behind the
// worker's handler, as websliced does.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	m := service.New(service.Config{Workers: 2, QueueDepth: 16, Store: st, Tracer: obs.New(2048, nil)})
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(func() { srv.Close(); m.Kill() })
	return srv
}

// golden returns the pinned corpus entry labeled label (a site name, or
// "rand-<seed>").
func golden(t *testing.T, corpus *experiments.GoldenCorpus, label string) experiments.GoldenEntry {
	t.Helper()
	for _, e := range corpus.Sites {
		if strings.HasPrefix(e.Label(), label+"@") || e.Label() == label {
			return e
		}
	}
	t.Fatalf("no golden entry %s", label)
	return experiments.GoldenEntry{}
}

// writeUpload renders a golden entry and writes its v3 encoding to a file,
// as `webslice trace -o` does.
func writeUpload(t *testing.T, e experiments.GoldenEntry) string {
	t.Helper()
	b, err := e.Bench()
	if err != nil {
		t.Fatal(err)
	}
	br := browser.New(b.Site, b.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		t.Fatal(br.Errors[0])
	}
	var buf bytes.Buffer
	if err := br.M.Tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "upload.wslt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var digestLine = regexp.MustCompile(`slice digest: ([0-9a-f]{64})`)

// digests returns every slice digest a command printed, in order.
func digests(out string) []string {
	var ds []string
	for _, m := range digestLine.FindAllStringSubmatch(out, -1) {
		ds = append(ds, m[1])
	}
	return ds
}

// TestClientEndToEnd drives the client commands against a real worker and
// a real coordinator over two workers: submit -wait of a site and of an
// upload, then status, result, spans and quarantined, and scatter -wait on
// both. Every slice digest printed must be its golden pin.
func TestClientEndToEnd(t *testing.T) {
	corpus, err := experiments.LoadGolden("../../examples/golden/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	site, seed := golden(t, corpus, "amazon-mobile"), golden(t, corpus, "rand-1001")
	upload := writeUpload(t, seed)

	worker, w1, w2 := startWorker(t), startWorker(t), startWorker(t)
	st, err := store.Open("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, Store: st, Node: "http://coordinator.test", Tracer: obs.New(2048, nil)})
	co := cluster.New(cluster.Config{Self: "http://coordinator.test", Local: local, Peers: []string{w1.URL, w2.URL}})
	coSrv := httptest.NewServer(cluster.NewHandler(co))
	t.Cleanup(func() { coSrv.Close(); co.Stop(); local.Kill() })

	for _, target := range []struct{ name, url string }{{"worker", worker.URL}, {"coordinator", coSrv.URL}} {
		t.Run(target.name, func(t *testing.T) {
			var out strings.Builder
			c := &client{api: service.NewClient(target.url, http.DefaultClient), clock: service.SystemClock, out: &out}
			run := func(what string, f func() error) string {
				t.Helper()
				out.Reset()
				if err := f(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				return out.String()
			}

			got := run("submit -wait", func() error { return c.clientSubmit(site.Name, site.Scale, "pixels", "", true, false) })
			id := strings.TrimSpace(strings.SplitN(got, "\n", 2)[0])
			if ds := digests(got); len(ds) != 1 || ds[0] != site.Pixels {
				t.Errorf("submit -wait %s printed digests %v, want the pin %s", site.Label(), ds, site.Pixels)
			}
			got = run("submit -i -wait", func() error { return c.clientSubmit("", 0, "syscalls", upload, true, false) })
			if ds := digests(got); len(ds) != 1 || ds[0] != seed.Syscalls {
				t.Errorf("submit -i -wait of %s printed digests %v, want the pin %s", seed.Label(), ds, seed.Syscalls)
			}

			if got = run("status", func() error { return c.clientStatus(id) }); !strings.HasPrefix(got, id+"  done") {
				t.Errorf("status %s printed %q, want the job done", id, got)
			}
			if ds := digests(run("result", func() error { return c.clientResult(id) })); len(ds) != 1 || ds[0] != site.Pixels {
				t.Errorf("result %s printed digests %v, want the pin %s", id, ds, site.Pixels)
			}
			got = run("spans", func() error { return c.clientSpans(id) })
			for _, span := range []string{"job", "render", "slice.scan"} {
				if !strings.Contains(got, span) {
					t.Errorf("spans %s printed no %s span:\n%s", id, span, got)
				}
			}
			if got = run("quarantined", c.clientQuarantined); got != "no quarantined jobs\n" {
				t.Errorf("quarantined printed %q", got)
			}
		})
	}

	t.Run("scatter", func(t *testing.T) {
		for _, url := range []string{worker.URL, coSrv.URL} {
			var out strings.Builder
			c := &client{api: service.NewClient(url, http.DefaultClient), clock: service.SystemClock, out: &out}
			names := []string{"amazon-mobile", "maps"}
			if err := c.clientScatter(strings.Join(names, ","), site.Scale, "pixels", true); err != nil {
				t.Fatalf("scatter -wait on %s: %v", url, err)
			}
			ds := digests(out.String())
			if len(ds) != len(names) {
				t.Fatalf("scatter -wait on %s printed digests %v, want %d", url, ds, len(names))
			}
			for i, name := range names {
				if e := golden(t, corpus, name); ds[i] != e.Pixels {
					t.Errorf("scatter -wait %s on %s printed digest %s, want the pin %s", name, url, ds[i], e.Pixels)
				}
			}
		}
	})
}
