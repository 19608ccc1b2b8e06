package cluster

import "webslice/internal/obs"

// JobTrace assembles the one causally-linked trace of a routed job: the
// coordinator's own spans (route, forward attempts, reroutes) merged with
// the owning worker's (queue wait, attempts, render, store lookups, slice
// phases), fetched over the worker's /jobs/{id}/trace endpoint. ok is
// false for an unknown job or with tracing off. Worker spans are
// best-effort — an unreachable owner yields the coordinator's half alone,
// mirroring how Info degrades to the last observed snapshot.
func (c *Coordinator) JobTrace(id string) ([]obs.SpanData, bool) {
	if c.tracer == nil {
		return nil, false
	}
	j, ok := c.lookup(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	peer, remoteID := j.peer, j.remoteID
	j.mu.Unlock()
	spans := c.tracer.ForTrace(j.traceCtx.Trace)
	var worker []obs.SpanData
	if peer == "" {
		// Local execution: the manager usually shares this tracer (the
		// default wiring), making this a no-op after dedup; with a distinct
		// tracer it contributes the job-side spans.
		worker, _ = c.cfg.Local.JobTrace(remoteID)
	} else {
		worker, _ = c.peers[peer].JobTrace(remoteID)
	}
	seen := make(map[string]bool, len(spans))
	for _, s := range spans {
		seen[s.ID] = true
	}
	for _, s := range worker {
		if !seen[s.ID] {
			spans = append(spans, s)
		}
	}
	obs.Sort(spans)
	return spans, true
}
