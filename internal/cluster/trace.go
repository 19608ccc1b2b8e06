package cluster

import (
	"webslice/internal/obs"
	"webslice/internal/service"
)

// JobTrace assembles the one causally-linked trace of a routed job: the
// coordinator's own spans (route, peer submits, reroutes) merged with its
// owner's (queue wait, attempts, render, store lookups, slice phases).
// With tracing off it answers service.ErrTracingOff. The owner's spans
// are best-effort — an unreachable owner yields the coordinator's half
// alone, mirroring how Info degrades to the last observed snapshot — and
// the local manager's, which share the coordinator's tracer, are merged
// once.
func (c *Coordinator) JobTrace(id string) ([]obs.SpanData, error) {
	j, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	if c.tracer == nil {
		return nil, service.ErrTracingOff
	}
	j.mu.Lock()
	peer, peerID := j.peer, j.peerID
	j.mu.Unlock()
	spans := c.tracer.ForTrace(j.traceCtx.Trace)
	owner, _ := c.owners[peer].JobTrace(peerID)
	seen := make(map[string]bool, len(spans))
	for _, s := range spans {
		seen[s.ID] = true
	}
	for _, s := range owner {
		if !seen[s.ID] {
			spans = append(spans, s)
		}
	}
	obs.Sort(spans)
	return spans, nil
}
