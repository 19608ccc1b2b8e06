package replay

import (
	"fmt"
	"math/bits"

	"webslice/internal/cdg"
	"webslice/internal/isa"
	"webslice/internal/slicer"
	"webslice/internal/trace"
)

// This file holds the invariant oracles: structural properties every correct
// slice must satisfy regardless of criteria. They are cheaper than a full
// replay or differential run, so the profiler can afford to check them on
// every slice it returns in production (core.Profiler.VerifyInvariants).

// CheckInvariants verifies the structural slice invariants:
//
//   - slice ⊆ trace: the bitset holds exactly SliceCount bits, none beyond
//     Total;
//   - closure under control dependences: for every in-slice record, the
//     nearest preceding branch it is control-dependent on (same frame
//     instance) is also in the slice — the pending-branch mechanism resolved;
//   - call closure: every in-slice record inside a call has its enclosing
//     Call record in the slice (interprocedural control dependence).
//
// deps is the graph the slice was computed over. For a data-only slice
// that is the empty graph, &cdg.Deps{}, under which no record has a
// controlling branch and the call closure still holds.
func CheckInvariants(t *trace.Trace, deps *cdg.Deps, res *slicer.Result) error {
	if deps == nil {
		return fmt.Errorf("invariant: nil control dependences (an empty cdg.Deps checks the data-only slice)")
	}
	if err := checkSubset(t, res); err != nil {
		return err
	}
	return checkClosure(t, deps, res)
}

func checkSubset(t *trace.Trace, res *slicer.Result) error {
	if res.Total != len(t.Recs) {
		return fmt.Errorf("invariant: result covers %d records, trace has %d", res.Total, len(t.Recs))
	}
	n := 0
	for _, w := range res.InSlice {
		n += bits.OnesCount64(w)
	}
	if n != res.SliceCount {
		return fmt.Errorf("invariant: bitset holds %d records but SliceCount says %d", n, res.SliceCount)
	}
	// Bits beyond Total would be records outside the trace.
	for i := res.Total; i < len(res.InSlice)*64; i++ {
		if res.InSlice.Get(i) {
			return fmt.Errorf("invariant: slice bit set at record %d beyond trace end %d", i, res.Total)
		}
	}
	if res.SliceCount > res.Total {
		return fmt.Errorf("invariant: slice of %d records from a trace of %d", res.SliceCount, res.Total)
	}
	return nil
}

// frameTracker walks the trace forward, reconstructing per-thread call
// frames: which Call record opened the current frame and the latest
// occurrence of each branch PC within the frame instance. Depth can go
// negative when a trace opens mid-function, so frames are keyed by depth.
type frameTracker struct {
	depth    int
	branches map[int]map[uint32]int // depth -> branch PC -> latest record index
	callRec  map[int]int            // depth -> Call record index that opened it
}

func newFrameTracker() *frameTracker {
	return &frameTracker{
		branches: map[int]map[uint32]int{},
		callRec:  map[int]int{},
	}
}

func checkClosure(t *trace.Trace, deps *cdg.Deps, res *slicer.Result) error {
	threads := map[uint8]*frameTracker{}
	tracker := func(tid uint8) *frameTracker {
		ft := threads[tid]
		if ft == nil {
			ft = newFrameTracker()
			threads[tid] = ft
		}
		return ft
	}
	for i := range t.Recs {
		r := &t.Recs[i]
		ft := tracker(r.TID)
		in := res.InSlice.Get(i)

		// Control-dependence closure: the record's governing branches within
		// the current frame instance must be in the slice. A dependence PC
		// with no preceding occurrence in this frame is the pending residue
		// the slicer tallies in PendingLeft (truncated traces) — tolerated.
		// The Call record belongs to the caller's frame; Ret records never
		// join the slice, and markers are pseudo-instructions.
		if in && r.Kind != isa.KindRet && r.Kind != isa.KindMarker {
			for _, bpc := range deps.Of(r.PC) {
				if j, ok := ft.branches[ft.depth][bpc]; ok && !res.InSlice.Get(j) {
					return fmt.Errorf(
						"invariant: record %d (pc %#x) is in the slice but its controlling branch at record %d (pc %#x) is not",
						i, r.PC, j, bpc)
				}
			}
		}
		// Call closure: an in-slice record implies its enclosing Call is in
		// the slice (checked against the immediate parent; transitive by
		// induction). Frames opened before the trace window have no Call.
		if in && r.Kind != isa.KindMarker {
			if call, ok := ft.callRec[ft.depth]; ok && !res.InSlice.Get(call) {
				return fmt.Errorf(
					"invariant: record %d (pc %#x) is in the slice but its enclosing call at record %d is not",
					i, r.PC, call)
			}
		}

		switch r.Kind {
		case isa.KindBranch:
			set := ft.branches[ft.depth]
			if set == nil {
				set = map[uint32]int{}
				ft.branches[ft.depth] = set
			}
			set[r.PC] = i
		case isa.KindCall:
			ft.depth++
			ft.branches[ft.depth] = nil // fresh frame instance
			ft.callRec[ft.depth] = i
		case isa.KindRet:
			delete(ft.branches, ft.depth)
			delete(ft.callRec, ft.depth)
			ft.depth--
		}
	}
	return nil
}

// CheckMonotonic verifies criteria-union monotonicity: the slice for
// Union{A, B} must contain every record of slice(A) and slice(B). The
// backward pass is a monotone fixpoint in its live sets, so adding criteria
// can only grow the slice; a violation means per-criterion state leaked.
func CheckMonotonic(union, a, b *slicer.Result) error {
	if union.Total != a.Total || union.Total != b.Total {
		return fmt.Errorf("invariant: union/criterion results cover different traces (%d/%d/%d records)",
			union.Total, a.Total, b.Total)
	}
	for i := 0; i < union.Total; i++ {
		if (a.InSlice.Get(i) || b.InSlice.Get(i)) && !union.InSlice.Get(i) {
			src := a.Criteria
			if b.InSlice.Get(i) {
				src = b.Criteria
			}
			return fmt.Errorf("invariant: record %d is in slice(%s) but missing from slice(%s)", i, src, union.Criteria)
		}
	}
	return nil
}
