// Client mode: webslice submit|status|result|scatter talk to a running
// websliced (standalone or cluster coordinator) over its HTTP API through
// service.Client, so the batch CLI and the service share one workflow.
// Submission honors the server's backpressure contract — a 429 is retried
// after its Retry-After hint (or a capped exponential backoff) — and
// result polling backs off exponentially instead of hammering the daemon,
// all on an injectable clock so the schedules are testable without real
// sleeps.
package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"webslice/internal/obs"
	"webslice/internal/report"
	"webslice/internal/service"
)

// Poll/backoff shape for the client's HTTP loops.
const (
	pollBase = 100 * time.Millisecond
	pollMax  = 2 * time.Second
)

// client runs the client commands against one websliced and prints to
// out. The clock seam is what the backoff tests hang off; production
// passes service.SystemClock.
type client struct {
	api     *service.Client
	clock   service.Clock
	maxWait time.Duration // total budget for one command; 0 = no limit
	out     io.Writer
}

func newClient(addr string, maxWait time.Duration) *client {
	return &client{api: service.NewClient(addr, http.DefaultClient), clock: service.SystemClock, maxWait: maxWait, out: os.Stdout}
}

// deadline materializes the -max-wait budget; ok reports whether a
// deadline exists at all.
func (c *client) deadline() (time.Time, bool) {
	if c.maxWait <= 0 {
		return time.Time{}, false
	}
	return c.clock.Now().Add(c.maxWait), true
}

// sleepOrExpire sleeps d (trimmed to the deadline) and returns an error
// once the budget is exhausted.
func (c *client) sleepOrExpire(d time.Duration, deadline time.Time, has bool, what string) error {
	if has {
		left := deadline.Sub(c.clock.Now())
		if left <= 0 {
			return fmt.Errorf("gave up %s after -max-wait %v", what, c.maxWait)
		}
		if d > left {
			d = left
		}
	}
	c.clock.Sleep(d, nil)
	return nil
}

// retryAfter parses a 429's Retry-After value (delay-seconds form) into a
// duration; 0 when absent or unparsable.
func retryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// submit posts a job, honoring Retry-After on 429 responses with capped
// exponential backoff between attempts, within the -max-wait budget.
func (c *client) submit(spec service.Spec) (string, error) {
	deadline, has := c.deadline()
	backoff := pollBase
	for {
		id, err := c.api.Submit(spec)
		var busy *service.APIError
		if !errors.As(err, &busy) || busy.Code != http.StatusTooManyRequests {
			return id, err
		}
		// The server's hint wins when it is longer than our own schedule.
		d := max(backoff, retryAfter(busy.RetryAfter))
		fmt.Fprintf(os.Stderr, "queue full, retrying in %v...\n", d)
		if err := c.sleepOrExpire(d, deadline, has, "submitting (server busy)"); err != nil {
			return "", err
		}
		if backoff *= 2; backoff > pollMax {
			backoff = pollMax
		}
	}
}

// clientSubmit posts a job: a binary trace file when tracePath is set,
// otherwise a named site. With wait it polls (with capped exponential
// backoff) until the job finishes and prints the result.
func (c *client) clientSubmit(site string, scale float64, criteria, tracePath string, wait, verify bool) error {
	spec := service.Spec{Site: site, Scale: scale, Criteria: criteria, Verify: verify}
	if tracePath != "" {
		body, err := os.ReadFile(tracePath)
		if err != nil {
			return err
		}
		spec = service.Spec{Trace: body, Criteria: criteria, Verify: verify}
	}
	id, err := c.submit(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, id)
	if !wait {
		return nil
	}
	if err := c.await(id); err != nil {
		return err
	}
	return c.clientResult(id)
}

// await polls a job until it is terminal, backing off exponentially from
// pollBase to pollMax, within the -max-wait budget.
func (c *client) await(id string) error {
	deadline, has := c.deadline()
	backoff := pollBase
	for {
		info, err := c.api.Info(id)
		if err != nil {
			return err
		}
		if info.Status.Terminal() {
			if info.Status != service.StatusDone {
				return fmt.Errorf("job %s %s: %s", id, info.Status, info.Error)
			}
			return nil
		}
		if err := c.sleepOrExpire(backoff, deadline, has, fmt.Sprintf("waiting for job %s", id)); err != nil {
			return err
		}
		if backoff *= 2; backoff > pollMax {
			backoff = pollMax
		}
	}
}

// clientStatus prints one job's status line.
func (c *client) clientStatus(id string) error {
	info, err := c.api.Info(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s  %-9s site=%s criteria=%s queue=%.0fms run=%.0fms cache_hit=%t", // one line per job
		info.ID, info.Status, orDash(siteLabel(info)), info.Criteria, info.QueueMs, info.RunMs, info.CacheHit)
	if info.Node != "" {
		fmt.Fprintf(c.out, " node=%s", info.Node)
	}
	if info.Reroutes > 0 {
		fmt.Fprintf(c.out, " reroutes=%d", info.Reroutes)
	}
	if info.Error != "" {
		fmt.Fprintf(c.out, " error=%q", info.Error)
	}
	fmt.Fprintln(c.out)
	return nil
}

func siteLabel(info service.Info) string {
	if info.Site == "" && info.Seed != 0 {
		return fmt.Sprintf("rand-%d", info.Seed)
	}
	return info.Site
}

// clientResult fetches and pretty-prints a finished job's result.
func (c *client) clientResult(id string) error {
	res, err := c.api.Result(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s: %s instructions, %s criteria\n", id, report.MInstr(res.Total), res.Criteria)
	fmt.Fprintf(c.out, "  slice: %s (%d records)", report.Pct1(res.SlicePct), res.SliceCount)
	if res.CacheHit {
		fmt.Fprintf(c.out, "  [served from artifact store]")
	}
	if res.Verified {
		fmt.Fprintf(c.out, "  [invariants verified]")
	}
	fmt.Fprintln(c.out)
	if res.TraceKey != "" {
		fmt.Fprintf(c.out, "  trace key: %s\n", res.TraceKey)
	}
	if res.SliceDigest != "" {
		fmt.Fprintf(c.out, "  slice digest: %s\n", res.SliceDigest)
	}
	for _, th := range res.Threads {
		pct := 0.0
		if th.Total > 0 {
			pct = 100 * float64(th.Sliced) / float64(th.Total)
		}
		fmt.Fprintf(c.out, "  %-28s %8s of %s\n", th.Name, report.Pct1(pct), report.MInstr(th.Total))
	}
	if len(res.Categories) > 0 {
		cats := make([]string, 0, len(res.Categories))
		for cat := range res.Categories {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		fmt.Fprintln(c.out, "  categories of unnecessary work:")
		for _, cat := range cats {
			fmt.Fprintf(c.out, "    %-16s %s\n", cat, report.Pct1(100*res.Categories[cat]))
		}
	}
	return nil
}

// clientSpans fetches a job's recorded span tree (/jobs/{id}/trace) and
// renders it as an indented tree with wall-clock durations, attributes,
// and events. Against a coordinator the tree is the merged cross-node
// trace: its routing spans stitched to the owning worker's execution
// spans by the propagated trace ID. Requires the daemon to run with
// -trace-spans; a daemon without tracing answers 404.
func (c *client) clientSpans(id string) error {
	if id == "" {
		return fmt.Errorf("spans: no job id (use -id <job> or `webslice spans <job>`)")
	}
	spans, err := c.api.JobTrace(id)
	if err != nil {
		return err
	}
	obs.RenderTree(c.out, spans)
	return nil
}

// clientScatter submits one job per site of a comma-separated list to a
// coordinator (or a worker), each through submit, so a full queue is
// waited out as for one job. Admission is all or nothing: once a site is
// refused, the jobs admitted before it are canceled (one that already
// finished stays done) and the error names the site. With wait it then
// gathers the results in site order.
func (c *client) clientScatter(sitesCSV string, scale float64, criteria string, wait bool) error {
	names := splitSites(sitesCSV)
	if len(names) == 0 {
		return fmt.Errorf("scatter: no sites (use -sites a,b,c)")
	}
	ids := make([]string, 0, len(names))
	for _, name := range names {
		id, err := c.submit(service.Spec{Site: name, Scale: scale, Criteria: criteria})
		if err != nil {
			for _, prev := range ids {
				c.api.Cancel(prev)
			}
			return fmt.Errorf("scatter: site %s refused: %w", name, err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		fmt.Fprintf(c.out, "%s  %s\n", id, names[i])
	}
	if !wait {
		return nil
	}
	// Gather in site order: results print deterministically no matter
	// which worker finished first.
	for i, id := range ids {
		if err := c.await(id); err != nil {
			return fmt.Errorf("site %s: %w", names[i], err)
		}
		fmt.Fprintf(c.out, "== %s\n", names[i])
		if err := c.clientResult(id); err != nil {
			return err
		}
	}
	return nil
}

func splitSites(csv string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(csv); i++ {
		if i == len(csv) || csv[i] == ',' {
			if s := csv[start:i]; s != "" {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	return out
}

// clientQuarantined lists the daemon's poisoned-job list: jobs pulled from
// rotation after panicking twice instead of crash-looping the service.
func (c *client) clientQuarantined() error {
	jobs, err := c.api.Quarantined()
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Fprintln(c.out, "no quarantined jobs")
		return nil
	}
	for _, info := range jobs {
		fmt.Fprintf(c.out, "%s  quarantined site=%s criteria=%s attempts=%d error=%q\n",
			info.ID, orDash(siteLabel(info)), info.Criteria, info.Attempts, info.Error)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
