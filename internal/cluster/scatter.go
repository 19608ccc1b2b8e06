package cluster

import (
	"fmt"
	"time"

	"webslice/internal/service"
)

// Scatter admits every spec in order, routing each to its ring owner, and
// returns the coordinator job ids in the same order. It fails atomically
// at admission: if spec i is rejected (validation, backpressure with no
// fallback), the already-admitted jobs 0..i-1 are canceled and the error
// is returned with its index — the caller never has to track a
// half-admitted batch.
func (c *Coordinator) Scatter(specs []service.Spec) ([]string, error) {
	ids := make([]string, 0, len(specs))
	for i, spec := range specs {
		id, err := c.Submit(spec)
		if err != nil {
			for _, prev := range ids {
				c.Cancel(prev)
			}
			return nil, fmt.Errorf("cluster: batch item %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Gather polls the given jobs until every one is terminal (or maxWait
// expires; <= 0 means no limit) and returns their results in input
// order — the scatter path's deterministic, site-ordered collection. A
// failed/canceled/quarantined job leaves a nil slot and Gather returns
// the error of the lowest such index (the parallel experiment runner's
// convention); jobs that did finish still deliver their results.
func (c *Coordinator) Gather(ids []string, maxWait time.Duration) ([]*service.Result, error) {
	results := make([]*service.Result, len(ids))
	settled := make([]bool, len(ids))
	var firstErr error
	errIndex := len(ids)
	deadline := c.clock.Now().Add(maxWait)
	interval := 20 * time.Millisecond
	for {
		pending := 0
		for i, id := range ids {
			if settled[i] {
				continue
			}
			if res, done := c.Result(id); done {
				results[i], settled[i] = res, true
				continue
			}
			info, ok := c.Info(id)
			if !ok {
				return results, fmt.Errorf("cluster: unknown job %s (batch index %d)", id, i)
			}
			if info.Status.Terminal() && info.Status != service.StatusDone {
				if i < errIndex {
					errIndex = i
					firstErr = fmt.Errorf("cluster: job %s (batch index %d) %s: %s", id, i, info.Status, info.Error)
				}
				settled[i] = true
				continue
			}
			pending++
		}
		if pending == 0 {
			return results, firstErr
		}
		if maxWait > 0 && !c.clock.Now().Before(deadline) {
			return results, fmt.Errorf("cluster: gather: %d job(s) still pending after %v", pending, maxWait)
		}
		c.clock.Sleep(interval, nil)
		if interval *= 2; interval > 500*time.Millisecond {
			interval = 500 * time.Millisecond
		}
	}
}
