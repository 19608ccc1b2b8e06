package service

import (
	"strconv"

	"webslice/internal/obs"
)

// Tracer returns the span recorder the manager publishes into (nil when
// tracing is disabled).
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// JobTrace returns the recorded spans of one job's trace, oldest first.
// With tracing off it answers ErrTracingOff. Spans evicted from the
// tracer's bounded ring are simply absent.
func (m *Manager) JobTrace(id string) ([]obs.SpanData, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if m.tracer == nil {
		return nil, ErrTracingOff
	}
	return m.tracer.ForTrace(j.span.TraceID()), nil
}

// startJobSpan opens the job's root span — or, when the submission carried
// a traceparent header (Spec.TraceCtx), a span parented on the remote
// coordinator's — and annotates it with the job's identity. The span is
// written once here, before the job is visible to any other goroutine,
// and ends in finish/drop.
func (m *Manager) startJobSpan(j *job) {
	if m.tracer == nil {
		return
	}
	s := m.tracer.Remote(j.spec.TraceCtx, "job")
	s.Set("job", j.id).Set("criteria", j.spec.Criteria)
	switch {
	case len(j.spec.Trace) > 0:
		s.Set("trace_bytes", strconv.Itoa(len(j.spec.Trace)))
	case j.spec.Site != "":
		s.Set("site", j.spec.Site)
	default:
		s.Set("seed", strconv.FormatUint(j.spec.Seed, 10))
	}
	if j.spec.Origin != "" {
		s.Set("origin", j.spec.Origin)
	}
	j.span = s
}
