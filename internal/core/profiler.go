// Package core is the profiler facade — the paper's primary contribution
// (Figure 3). It ties the forward pass (control-flow graph reconstruction,
// postdominators, control dependence graph) to the backward pass (liveness-
// based dynamic backward slicing) and exposes the two slicing criteria the
// paper evaluates: the pixels buffer and system calls.
//
// Typical use:
//
//	p := core.NewProfiler(tr)
//	res, err := p.Slice(slicer.PixelCriteria{})
//
// One forward pass serves every backward pass over the same trace, as the
// paper notes: the profiler keeps it across calls, each Slice is one reverse
// walk for one criterion, and an attached artifact store (see UseStore)
// persists the forward pass. The backward pass always runs; a caller that
// wants to skip it caches its own answer (the service keeps a job's finished
// result).
package core

import (
	"fmt"
	"strconv"

	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/obs"
	"webslice/internal/replay"
	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
)

// AnalysisVersion names the answers this build's analysis gives for a
// trace: the forward pass (cfg.Build, postdominators, the control
// dependence graph), the backward pass (slicer.Slice) and the Figure 5
// categorization (analysis.Categorize). Bump it in any change that alters
// a slice or a category share of any trace. Every store key the service
// derives names it, so a bump orphans the forward passes and results of
// older analysis code instead of serving them. The golden corpus pins it
// beside each golden site's slice and category digests, and `webslice
// verify` fails when one of those moves while neither this constant nor
// browser.RenderVersion does.
const AnalysisVersion = 1

// Profiler couples a trace with its forward-pass products and runs slices.
type Profiler struct {
	// T is the trace being profiled.
	T *trace.Trace

	deps *cdg.Deps

	// Opts are the options of every slicing run.
	Opts slicer.Options

	// VerifyInvariants makes every slice the profiler returns pass the
	// structural invariant oracles (replay.CheckInvariants) first. An
	// invariant violation is an error.
	VerifyInvariants bool

	// Obs, when non-nil, is the parent span the profiler records its work
	// under: the forward pass, the backward pass (slice.scan), every
	// forward-pass store lookup/publish (with hit/miss and the disk
	// breaker's state), and invariant verification each become child spans.
	// Nil disables tracing at zero cost — every obs.Span method is nil-safe.
	Obs *obs.Span

	// store, when set, is consulted before the forward pass, which loads a
	// cached control dependence graph instead of computing one. key is the
	// forward pass's key in the store.
	store *store.Store
	key   string
}

// NewProfiler wraps a trace. Run Forward before slicing (Slice does it on
// demand if you forget).
func NewProfiler(t *trace.Trace) *Profiler {
	return &Profiler{T: t}
}

// UseStore attaches a content-addressed artifact store, in which key is
// the key of this trace's forward pass. The caller derives it from what
// names the trace (the service from a job's JobKey and AnalysisVersion),
// so the trace is not hashed here. From then on Forward consults the store
// before computing and publishes what it computes.
func (p *Profiler) UseStore(s *store.Store, key string) {
	p.store, p.key = s, key
}

// Forward runs the forward pass: per-function CFGs from the dynamic trace,
// postdominator trees, and the control dependence graph. With a store
// attached, a cached dependence graph is loaded instead (the CFGs are then
// not built) and a computed one is saved.
// Opts.Canceled is honored at the pass's phase boundaries (the backward
// pass additionally polls it mid-walk; see slicer.Options.Canceled).
func (p *Profiler) Forward() error {
	if p.deps != nil {
		return nil
	}
	if p.canceled() {
		return slicer.ErrCanceled
	}
	if p.store != nil {
		// A decode/corruption error is a cache miss, not a failure.
		gs := p.storeSpan("store.get")
		d, ok, _ := p.store.GetDeps(p.key)
		gs.Set("hit", strconv.FormatBool(ok))
		gs.End()
		if ok {
			p.deps = d
			return nil
		}
	}
	fs := p.Obs.Child("forward")
	f, err := cfg.Build(p.T)
	if err != nil {
		fs.EndErr(err)
		return fmt.Errorf("core: forward pass: %w", err)
	}
	if p.canceled() {
		fs.EndErr(slicer.ErrCanceled)
		return slicer.ErrCanceled
	}
	p.deps = cdg.Compute(f)
	fs.End()
	if p.store != nil {
		ps := p.storeSpan("store.put")
		p.store.PutDeps(p.key, p.deps)
		ps.End()
	}
	return nil
}

// storeSpan starts a child span for one forward-pass store operation,
// annotated kind=deps and with the disk breaker's current state (closed /
// half-open / open), so degraded-store jobs are visible in traces.
// Nil-safe: with tracing off it returns nil.
func (p *Profiler) storeSpan(op string) *obs.Span {
	if p.Obs == nil {
		return nil
	}
	return p.Obs.Child(op).
		Set("kind", "deps").
		Set("breaker", p.store.BreakerState().String())
}

// canceled polls the default options' cancellation hook.
func (p *Profiler) canceled() bool {
	return p.Opts.Canceled != nil && p.Opts.Canceled()
}

// Deps returns the control dependence graph (nil before Forward).
func (p *Profiler) Deps() *cdg.Deps { return p.deps }

// Slice runs the backward pass for one criterion with p.Opts: one reverse
// walk of the trace. The forward pass runs on demand (from the store, if one
// is attached and holds it). Under VerifyInvariants the result passes the
// invariant oracles first.
func (p *Profiler) Slice(c slicer.Criteria) (*slicer.Result, error) {
	if !p.Opts.NoControlDeps {
		if err := p.Forward(); err != nil {
			return nil, err
		}
	}
	sp := p.Obs.Child("slice.scan")
	r, err := slicer.Slice(p.T, p.deps, c, p.Opts)
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	if p.VerifyInvariants {
		vs := p.Obs.Child("verify")
		err := replay.CheckInvariants(p.T, p.deps, r)
		vs.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("core: slice %q failed verification: %w", r.Criteria, err)
		}
	}
	return r, nil
}
