package cluster

import (
	"fmt"

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
