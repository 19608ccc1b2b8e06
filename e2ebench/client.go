package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"webslice/internal/service"
)

// pollInterval is how often a client polls GET /jobs/{id}; it bounds how
// late a finished job is noticed, so it sits well below the fastest job.
const pollInterval = 10 * time.Millisecond

// jobTimeout bounds one job from submit to result.
const jobTimeout = 60 * time.Second

// outcome is what a client observed for one job.
type outcome struct {
	job
	ID        string
	SubmitMs  float64 // the POST, until its response was read
	LatencyMs float64 // POST submit to a fully read /result body
	Bytes     int     // upload size (0 for site jobs)
	Done      bool    // the job finished with status done
	Failure   string  // empty for a job that counts as succeeded
}

// loadGen submits jobs to one fleet and checks their results.
type loadGen struct {
	w       workload
	seed    uint64
	pairs   []job // site-repeat's (site, criteria) pairs
	uploads []*upload
	golden  func(job) string
	http    *http.Client
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second},
	}
}

// run sends one job and waits for its result.
func (d *loadGen) run(ctx context.Context, base string, j job) outcome {
	o := outcome{job: j}
	var req *http.Request
	var err error
	var want string
	if j.Input < 0 {
		spec, _ := json.Marshal(service.Spec{Site: j.Site, Scale: j.Scale, Criteria: j.Criteria})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(spec))
		want = d.golden(j)
	} else {
		u := d.uploads[j.Input]
		o.Bytes = len(u.data)
		want = u.want[j.Criteria]
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/jobs/trace?criteria="+url.QueryEscape(j.Criteria), bytes.NewReader(u.data))
	}
	if err != nil {
		o.Failure = err.Error()
		return o
	}
	start := time.Now()
	resp, err := d.http.Do(req)
	if err != nil {
		o.Failure = "submit: " + err.Error()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.SubmitMs = msSince(start)
	switch {
	case err != nil:
		o.Failure = "submit: " + err.Error()
		return o
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		o.Failure = fmt.Sprintf("refused: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return o
	case resp.StatusCode != http.StatusAccepted:
		o.Failure = fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
		o.Failure = fmt.Sprintf("submit: bad ack %q", body)
		return o
	}
	o.ID = ack.ID

	deadline := start.Add(jobTimeout)
	for {
		if time.Now().After(deadline) {
			o.Failure = "timed out"
			return o
		}
		select {
		case <-ctx.Done():
			o.Failure = "canceled"
			return o
		case <-time.After(pollInterval):
		}
		var info service.Info
		if err := getJSON(d.http, base+"/jobs/"+o.ID, &info); err != nil {
			o.Failure = "status: " + err.Error()
			return o
		}
		if !info.Status.Terminal() {
			continue
		}
		if info.Status != service.StatusDone {
			o.Failure = fmt.Sprintf("job %s: %s", info.Status, info.Error)
			return o
		}
		break
	}

	resp, err = d.http.Get(base + "/jobs/" + o.ID + "/result")
	if err != nil {
		o.Failure = "result: " + err.Error()
		return o
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.LatencyMs = msSince(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		o.Failure = fmt.Sprintf("result: HTTP %d (%v)", resp.StatusCode, err)
		return o
	}
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		o.Failure = "result: " + err.Error()
		return o
	}
	o.Done = true
	if want == "" || res.SliceDigest != want {
		o.Failure = fmt.Sprintf("wrong digest %s, reference %s", res.SliceDigest, want)
	}
	return o
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// warmup sends jobs untimed, on the workload's client count, and fails on
// the first job that does not succeed.
func (d *loadGen) warmup(ctx context.Context, base string, jobs []job) error {
	var next atomic.Int64
	errs := make(chan error, d.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				if o := d.run(ctx, base, jobs[i]); o.Failure != "" {
					errs <- fmt.Errorf("warm-up job %s %s/%d: %s", o.Kind, o.Criteria, o.Input, o.Failure)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// window is one timed closed-loop run.
type window struct {
	start, end time.Time
	outcomes   []outcome // in plan order
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// drive runs the closed loop: each client sends its next job as soon as its
// previous one returned, until n jobs were sent. The window ends when the
// last of them returns. A cluster-mixed repeat waits for its trace's first
// sighting to finish (it normally has, clusterLag blocks earlier).
func (d *loadGen) drive(ctx context.Context, base string, n int, onStart func()) *window {
	firstDone := make([]chan struct{}, len(d.uploads))
	for i := range firstDone {
		firstDone[i] = make(chan struct{})
		if i < warmInputs(d.w) {
			close(firstDone[i]) // first seen in the warm-up pass
		}
	}
	outs := make([]outcome, n) // element i is written only by the client that sent job i
	var next atomic.Int64
	var wg sync.WaitGroup
	onStart()
	win := &window{start: time.Now()}
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				j := planJob(d.w, d.seed, d.pairs, i)
				if j.Kind == kindRepeatSame || j.Kind == kindRepeatOther {
					select {
					case <-firstDone[j.Input]:
					case <-ctx.Done():
						return
					}
				}
				outs[i] = d.run(ctx, base, j)
				if j.Kind == kindFirstSeen {
					close(firstDone[j.Input])
				}
			}
		}()
	}
	wg.Wait()
	win.end = time.Now()
	win.outcomes = outs
	return win
}
