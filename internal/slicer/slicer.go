// Package slicer implements the backward pass of the profiler: dynamic
// backward program slicing over an instruction trace via liveness analysis,
// exactly as §III-B of the paper describes. A set of live variables —
// per-thread live registers plus one shared live memory set — is updated
// from two sources: the slicing criteria (pairs of program point and
// variable set) and the operation of each instruction walked in reverse.
// Control dependences are honored with the paper's pending-branch-list
// mechanism, using the control dependence graph built by the forward pass.
package slicer

import (
	"errors"
	"fmt"

	"webslice/internal/cdg"
	"webslice/internal/isa"
	"webslice/internal/trace"
	"webslice/internal/vmem"
)

// ErrCanceled aborts a backward pass whose Options.Canceled hook fired —
// the caller asked for the work to stop (deadline, shutdown, job cancel).
var ErrCanceled = errors.New("slicer: canceled")

// Criteria designates, for each program point the backward pass reaches,
// which variables (memory ranges) become live there — the machine form of
// the paper's (program point, set of variables) pairs.
type Criteria interface {
	// Name identifies the criteria in reports.
	Name() string
	// At is invoked for every record in the backward pass. mem lists memory
	// ranges that become live at this point; anchor reports that the record
	// itself is part of the slice (its register sources become live).
	At(i int, r *trace.Rec, t *trace.Trace) (mem []vmem.Range, anchor bool)
}

// PixelCriteria makes the final pixel values live at every pixel-buffer
// marker: the paper's primary criterion ("the pixels buffer at points where
// it contains the final values of pixels that are going to be put on the
// device display").
type PixelCriteria struct{}

// Name implements Criteria.
func (PixelCriteria) Name() string { return "pixels" }

// At implements Criteria.
func (PixelCriteria) At(i int, r *trace.Rec, t *trace.Trace) ([]vmem.Range, bool) {
	if r.Kind != isa.KindMarker {
		return nil, false
	}
	mk := t.Marks[i]
	if mk == nil || mk.Kind != isa.MarkPixels {
		return nil, false
	}
	return []vmem.Range{mk.Buf}, false
}

// SyscallCriteria makes the values consumed by system calls live: the
// paper's second, broader criterion capturing everything the process
// communicates to the outside world (network, display, audio). Its slice is
// by construction inclusive of the pixel slice when display output flows
// through an output syscall.
type SyscallCriteria struct{}

// Name implements Criteria.
func (SyscallCriteria) Name() string { return "syscalls" }

// At implements Criteria.
func (SyscallCriteria) At(i int, r *trace.Rec, t *trace.Trace) ([]vmem.Range, bool) {
	if r.Kind != isa.KindSyscall {
		return nil, false
	}
	eff := t.Sys[i]
	if eff == nil {
		return nil, true
	}
	return eff.Reads, true
}

// Union combines criteria: a point is live if any member makes it live.
type Union []Criteria

// Name implements Criteria.
func (u Union) Name() string {
	s := "union("
	for i, c := range u {
		if i > 0 {
			s += "+"
		}
		s += c.Name()
	}
	return s + ")"
}

// At implements Criteria.
func (u Union) At(i int, r *trace.Rec, t *trace.Trace) ([]vmem.Range, bool) {
	var mem []vmem.Range
	anchor := false
	for _, c := range u {
		m, a := c.At(i, r, t)
		mem = append(mem, m...)
		anchor = anchor || a
	}
	return mem, anchor
}

// Window restricts criteria to program points at record index < Limit —
// used for the paper's Bing experiment that slices backward starting from
// the moment the page finished loading rather than from the end of the
// browsing session.
type Window struct {
	Inner Criteria
	Limit int
}

// Name implements Criteria.
func (w Window) Name() string { return fmt.Sprintf("%s[<%d]", w.Inner.Name(), w.Limit) }

// At implements Criteria.
func (w Window) At(i int, r *trace.Rec, t *trace.Trace) ([]vmem.Range, bool) {
	if i >= w.Limit {
		return nil, false
	}
	return w.Inner.At(i, r, t)
}

// Options tune a slicing run. No option changes the slice: the data-only
// slice of the ablation study is the slice over an empty control
// dependence graph, &cdg.Deps{}.
type Options struct {
	// Canceled, when non-nil, is polled every few thousand records of the
	// backward walk; returning true aborts the pass with ErrCanceled. The
	// slicing service uses it to enforce per-job deadlines and cancellation
	// mid-pass instead of only at phase boundaries. It does not change the
	// result.
	Canceled func() bool
	// Deprecated: has no effect; the walk samples no progress curve, and
	// analysis.BackwardCurve computes Figure 4's main-thread series from
	// the finished slice. Kept only because e2ebench/workloads.go, which
	// changes only together with BENCHMARK.json, sets it.
	MainThread uint8
	// Deprecated: has no effect; the backward pass is one sequential walk.
	// Kept only because e2ebench/workloads.go, which changes only together
	// with BENCHMARK.json, sets it.
	Segments int
}

// Result is the computed slice plus the statistics the paper reports.
type Result struct {
	Criteria string
	Total    int
	// InSlice is a bitset over record indices.
	InSlice Bitset
	// SliceCount is the number of records in the slice.
	SliceCount int
	// ByThread and SliceByThread count records per thread.
	ByThread      map[uint8]int
	SliceByThread map[uint8]int
	// ByFunc and SliceByFunc count records per function.
	ByFunc      map[trace.FuncID]int
	SliceByFunc map[trace.FuncID]int
	// PendingLeft counts branch PCs still pending when the pass finished
	// (nonzero only for truncated traces).
	PendingLeft int
	// Deprecated: always nil; the walk samples no progress curve, and
	// analysis.BackwardCurve computes Figure 4 from InSlice. Kept only
	// because e2ebench/workloads.go, which changes only together with
	// BENCHMARK.json, clears it.
	Progress []ProgressPoint
}

// ProgressPoint was one sample of the backward pass's progress curve.
//
// Deprecated: nothing produces it; it remains as the element type of the
// deprecated Result.Progress.
type ProgressPoint struct {
	Processed, Sliced         int
	MainProcessed, MainSliced int
}

// Percent returns the slice percentage over all instructions.
func (r *Result) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.SliceCount) / float64(r.Total)
}

// ThreadPercent returns the slice percentage within one thread.
func (r *Result) ThreadPercent(tid uint8) float64 {
	if r.ByThread[tid] == 0 {
		return 0
	}
	return 100 * float64(r.SliceByThread[tid]) / float64(r.ByThread[tid])
}

// RangePercent returns the slice percentage of records in [lo, hi).
func (r *Result) RangePercent(lo, hi int) float64 {
	n, in := 0, 0
	for i := lo; i < hi && i < r.Total; i++ {
		n++
		if r.InSlice.Get(i) {
			in++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * float64(in) / float64(n)
}

// callFrame is one call-stack level of the backward pass: the branch PCs
// still pending for this frame and whether the frame contributed a slice
// record. Frames live in dense per-depth slices (frameStack) instead of the
// nested map[int]map[uint32]struct{} an earlier version used — the pending
// sets are tiny (a handful of branch PCs), so linear scans over a slice beat
// per-record map allocation and hashing in the hot loop.
type callFrame struct {
	pending []uint32
	contrib bool
}

// addPending schedules a branch PC if not already pending.
func (f *callFrame) addPending(pc uint32) {
	for _, p := range f.pending {
		if p == pc {
			return
		}
	}
	f.pending = append(f.pending, pc)
}

// takePending removes pc from the pending set, reporting whether it was
// there. Order within the set is irrelevant, so removal is a swap-delete.
func (f *callFrame) takePending(pc uint32) bool {
	for i, p := range f.pending {
		if p == pc {
			last := len(f.pending) - 1
			f.pending[i] = f.pending[last]
			f.pending = f.pending[:last]
			return true
		}
	}
	return false
}

// reset clears a frame for re-use at a new depth.
func (f *callFrame) reset() {
	f.pending = f.pending[:0]
	f.contrib = false
}

// frameStack indexes callFrames by call depth. Depth can go negative when
// the trace opens mid-function (a call whose return precedes the window),
// so negative depths get their own slice: depth d < 0 lives at neg[-1-d].
type frameStack struct {
	pos []callFrame
	neg []callFrame
}

// at returns the frame for depth d, growing the stack as needed. The
// returned pointer is only valid until the next at call (append may move
// the backing array).
func (s *frameStack) at(d int) *callFrame {
	if d >= 0 {
		for len(s.pos) <= d {
			s.pos = append(s.pos, callFrame{})
		}
		return &s.pos[d]
	}
	i := -1 - d
	for len(s.neg) <= i {
		s.neg = append(s.neg, callFrame{})
	}
	return &s.neg[i]
}

// pendingLeft sums the pending branches across every depth ever touched.
func (s *frameStack) pendingLeft() int {
	n := 0
	for i := range s.pos {
		n += len(s.pos[i].pending)
	}
	for i := range s.neg {
		n += len(s.neg[i].pending)
	}
	return n
}

type threadState struct {
	depth  int
	frames frameStack
}

// sliceState is the complete working state of one backward pass. Thread and
// function tallies accumulate in dense slices indexed by TID/FuncID and are
// converted to the Result maps once at the end — two map operations per
// record used to dominate the hot-loop profile.
type sliceState struct {
	t    *trace.Trace
	deps *cdg.Deps
	crit Criteria

	res     *Result
	live    *wordSet
	regs    *regSet
	threads [256]*threadState

	byThread      [256]int
	sliceByThread [256]int
	byFunc        []int
	sliceByFunc   []int
}

func newSliceState(t *trace.Trace, deps *cdg.Deps, c Criteria) *sliceState {
	n := len(t.Recs)
	return &sliceState{
		t:    t,
		deps: deps,
		crit: c,
		res: &Result{
			Criteria: c.Name(),
			Total:    n,
			InSlice:  NewBitset(n),
		},
		live:        getWordSet(),
		regs:        getRegSet(n),
		byFunc:      make([]int, len(t.Funcs)),
		sliceByFunc: make([]int, len(t.Funcs)),
	}
}

func (s *sliceState) thread(tid uint8) *threadState {
	th := s.threads[tid]
	if th == nil {
		th = getThreadState()
		s.threads[tid] = th
	}
	return th
}

// bumpFunc counts a record against fn, growing the dense tally if the trace
// names more functions than its symbol table (unvalidated traces).
func bumpFunc(tally *[]int, fn trace.FuncID) {
	if int(fn) >= len(*tally) {
		*tally = append(*tally, make([]int, int(fn)+1-len(*tally))...)
	}
	(*tally)[fn]++
}

// step processes record i; it is the whole per-record body of the backward
// pass.
func (s *sliceState) step(i int, r *trace.Rec) {
	th := s.thread(r.TID)
	s.byThread[r.TID]++
	bumpFunc(&s.byFunc, r.Func())

	// Criteria: reaching this program point may make variables live.
	if mem, anchor := s.crit.At(i, r, s.t); len(mem) > 0 || anchor {
		for _, rg := range mem {
			s.live.Add(rg)
		}
		if anchor {
			s.markSlice(i, r, th)
			s.setReg(r.Src1)
			s.setReg(r.Src2)
		}
	}

	switch r.Kind {
	case isa.KindConst:
		if s.regs.Kill(uint32(r.Dst)) {
			s.markSlice(i, r, th)
		}
	case isa.KindOp:
		if s.regs.Kill(uint32(r.Dst)) {
			s.markSlice(i, r, th)
			s.setReg(r.Src1)
			s.setReg(r.Src2)
		}
	case isa.KindLoad:
		if s.regs.Kill(uint32(r.Dst)) {
			s.markSlice(i, r, th)
			s.live.Add(r.MemRange())
			s.setReg(r.Src2) // address register
		}
	case isa.KindStore:
		if s.live.Kill(r.MemRange()) {
			s.markSlice(i, r, th)
			s.setReg(r.Src1) // value
			s.setReg(r.Src2) // address register
		}
	case isa.KindBranch:
		if th.frames.at(th.depth).takePending(r.PC) {
			s.markSlice(i, r, th)
			s.setReg(r.Src1) // condition
		}
	case isa.KindRet:
		// Walking backward, a return means we are entering the callee's
		// body: deeper frame, fresh pending/contribution scope.
		th.depth++
		th.frames.at(th.depth).reset()
	case isa.KindCall:
		fr := th.frames.at(th.depth)
		contributed := fr.contrib
		s.res.PendingLeft += len(fr.pending)
		fr.reset()
		th.depth--
		if contributed {
			// Interprocedural control dependence: the call instruction
			// guards everything its instance executed.
			s.markSlice(i, r, th)
		}
	case isa.KindSyscall:
		// A syscall defines the memory it writes (e.g. recvfrom filling
		// the response buffer): if any of that is live, the external
		// input is part of the provenance.
		if eff := s.t.Sys[i]; eff != nil {
			hit := false
			for _, w := range eff.Writes {
				if s.live.Kill(w) {
					hit = true
				}
			}
			if s.regs.Kill(uint32(r.Dst)) {
				hit = true
			}
			if hit {
				s.markSlice(i, r, th)
				for _, rd := range eff.Reads {
					s.live.Add(rd)
				}
			}
		}
	case isa.KindMarker, isa.KindNop:
		// Criteria handled above; markers are pseudo-instructions and
		// never join the slice themselves.
	}
}

// markSlice adds record i to the slice, credits its thread/function tallies,
// flags its frame as contributing, and schedules its control-dependence
// branches on the pending list. Only step calls it, with the index it is
// stepping, so a record joins the slice only during its own step.
func (s *sliceState) markSlice(i int, r *trace.Rec, th *threadState) {
	if s.res.InSlice.Get(i) {
		return
	}
	s.res.InSlice.Set(i)
	s.res.SliceCount++
	s.sliceByThread[r.TID]++
	bumpFunc(&s.sliceByFunc, r.Func())
	fr := th.frames.at(th.depth)
	fr.contrib = true
	for _, bpc := range s.deps.Of(r.PC) {
		fr.addPending(bpc)
	}
}

func (s *sliceState) setReg(r isa.Reg) {
	if r != isa.RegNone {
		s.regs.Set(uint32(r))
	}
}

// finish converts the dense tallies into the Result's maps (nonzero entries
// only, matching what per-record map increments would have produced) and
// totals the pending-branch residue.
func (s *sliceState) finish() *Result {
	res := s.res
	res.ByThread = make(map[uint8]int)
	res.SliceByThread = make(map[uint8]int)
	for tid := 0; tid < 256; tid++ {
		if s.byThread[tid] > 0 {
			res.ByThread[uint8(tid)] = s.byThread[tid]
		}
		if s.sliceByThread[tid] > 0 {
			res.SliceByThread[uint8(tid)] = s.sliceByThread[tid]
		}
	}
	res.ByFunc = make(map[trace.FuncID]int)
	res.SliceByFunc = make(map[trace.FuncID]int)
	for fn, c := range s.byFunc {
		if c > 0 {
			res.ByFunc[trace.FuncID(fn)] = c
		}
	}
	for fn, c := range s.sliceByFunc {
		if c > 0 {
			res.SliceByFunc[trace.FuncID(fn)] = c
		}
	}
	for _, th := range s.threads {
		if th != nil {
			res.PendingLeft += th.frames.pendingLeft()
		}
	}
	return res
}

// Slice runs the backward pass for criterion c over t: one reverse walk of
// the trace with one live-register set, live-memory set, and pending-branch
// state, using the control dependences of the forward pass. Over an empty
// graph, &cdg.Deps{}, no branch joins the slice: that is the data-only
// slice. One forward pass serves many backward passes.
func Slice(t *trace.Trace, deps *cdg.Deps, c Criteria, opts Options) (*Result, error) {
	if c == nil {
		return nil, fmt.Errorf("slicer: nil criteria")
	}
	if deps == nil {
		return nil, fmt.Errorf("slicer: nil control dependences (an empty cdg.Deps gives the data-only slice)")
	}
	recs := t.Recs
	s := newSliceState(t, deps, c)
	defer func() {
		putRegSet(s.regs)
		putWordSet(s.live)
		for _, th := range s.threads {
			putThreadState(th)
		}
	}()
	for i := len(recs) - 1; i >= 0; i-- {
		if opts.Canceled != nil && i&(cancelStride-1) == 0 && opts.Canceled() {
			return nil, ErrCanceled
		}
		s.step(i, &recs[i])
	}
	return s.finish(), nil
}

// cancelStride spaces out the Canceled polls: cheap enough to be invisible
// in the hot loop, frequent enough that a deadline or a cancellation lands
// within a few million instructions of being raised.
const cancelStride = 1 << 15
