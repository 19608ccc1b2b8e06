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
// paper notes: the profiler keeps it across calls (Profiler.Deps), and each
// Slice is one reverse walk for one criterion. The profiler computes and its
// callers cache: a caller that kept a trace's forward pass hands it over in
// Deps, and one that wants to skip the backward pass keeps its own answer.
// The service keeps both, the forward pass and the finished result.
package core

import (
	"fmt"

	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/obs"
	"webslice/internal/replay"
	"webslice/internal/slicer"
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

	// Deps is the forward pass's product, T's control dependence graph.
	// Forward computes it when it is nil; a caller that kept the graph of
	// the same trace sets it first, and the profiler uses it as given.
	Deps *cdg.Deps

	// Opts are the options of every slicing run.
	Opts slicer.Options

	// VerifyInvariants makes every slice the profiler returns pass the
	// structural invariant oracles (replay.CheckInvariants) first. An
	// invariant violation is an error.
	VerifyInvariants bool

	// Obs, when non-nil, is the parent span the profiler records its work
	// under: the forward pass, the backward pass (slice.scan) and invariant
	// verification each become child spans. Nil disables tracing at zero
	// cost — every obs.Span method is nil-safe.
	Obs *obs.Span
}

// NewProfiler wraps a trace. Run Forward before slicing (Slice does it on
// demand if you forget).
func NewProfiler(t *trace.Trace) *Profiler {
	return &Profiler{T: t}
}

// Forward runs the forward pass, unless Deps is already set: per-function
// CFGs from the dynamic trace, postdominator trees, and the control
// dependence graph, which it stores in Deps.
// Opts.Canceled is honored at the pass's phase boundaries (the backward
// pass additionally polls it mid-walk; see slicer.Options.Canceled).
func (p *Profiler) Forward() error {
	if p.Deps != nil {
		return nil
	}
	if p.canceled() {
		return slicer.ErrCanceled
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
	p.Deps = cdg.Compute(f)
	fs.End()
	return nil
}

// canceled polls the default options' cancellation hook.
func (p *Profiler) canceled() bool {
	return p.Opts.Canceled != nil && p.Opts.Canceled()
}

// Slice runs the backward pass for one criterion with p.Opts: one reverse
// walk of the trace. The forward pass runs first if Deps is not set. Under
// VerifyInvariants the result passes the invariant oracles first.
func (p *Profiler) Slice(c slicer.Criteria) (*slicer.Result, error) {
	if err := p.Forward(); err != nil {
		return nil, err
	}
	sp := p.Obs.Child("slice.scan")
	r, err := slicer.Slice(p.T, p.Deps, c, p.Opts)
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	if p.VerifyInvariants {
		vs := p.Obs.Child("verify")
		err := replay.CheckInvariants(p.T, p.Deps, r)
		vs.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("core: slice %q failed verification: %w", r.Criteria, err)
		}
	}
	return r, nil
}
