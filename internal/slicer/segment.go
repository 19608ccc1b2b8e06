package slicer

import (
	"sync"
	"sync/atomic"
	"time"

	"webslice/internal/cdg"
	"webslice/internal/isa"
	"webslice/internal/trace"
	"webslice/internal/vmem"
)

// This file implements the segmented parallel backward pass. The trace is
// partitioned into K contiguous segments; three phases reproduce the
// sequential walk bit for bit:
//
//  1. Scan (parallel): each segment runs the ordinary fused liveness walk
//     (sliceState.step, unmodified) with an EMPTY incoming live state. The
//     analysis is monotone in incoming liveness — every kill (register
//     test-and-clear at a def, live-memory clear at a store, pending-branch
//     consumption) happens whether or not the killed entry was live, and
//     gens only ever add liveness — so every mark made under the empty
//     state is a true mark, and the segment's bottom state is exactly the
//     surviving part of the liveness generated inside it. The scan also
//     records which records the criteria anchored (verdict-independent).
//
//  2. Stitch (sequential, last segment → first): threads the liveness the
//     scan could not see — the delta D flowing in from later segments —
//     backward through the earlier segments, maintaining the invariant
//     P ∪ D = T at every record (P: the segment's pass-1 state, T: the true
//     sequential state). D only holds the part of T the local pass missed,
//     so most records fall through with a couple of bitset probes; the
//     stitch also owns the TRUE call-frame state (pending branches,
//     contribution flags), replaying the control effects of records already
//     marked by the scan and resolving the deferred ones D decides.
//
//  3. Tally (parallel): reconstructs the progress curve from the final
//     slice bitset with per-segment scans plus a suffix-sum fix-up.
//
// The last segment's pass-1 run saw the true (empty) end-of-trace state, so
// its verdicts, frames, and pending-call counts are final; the stitch
// adopts its bottom state and starts walking at the second-to-last segment.
const (
	// segmentsPerWorker oversubscribes segments to workers so a segment that
	// happens to be slice-dense cannot straggle the whole scan.
	segmentsPerWorker = 4
	// autoSegmentMinRecs is the smallest trace the automatic mode will
	// segment; below it the stitch overhead outweighs the parallel scan.
	autoSegmentMinRecs = 1 << 14
	// minSegmentRecs keeps forced segment counts sane: segments are at least
	// this long and boundaries are aligned to it so the shared slice bitset
	// is written in goroutine-disjoint 64-bit words.
	minSegmentRecs = 64
)

// planSegments splits n records into at most k contiguous segments and
// returns the k+1 boundary indices. Interior boundaries are 64-aligned so
// concurrent segment scans touch disjoint words of the shared bitsets; k is
// clamped so every segment holds at least minSegmentRecs records.
func planSegments(n, k int) []int { return planSegmentsAligned(n, k, minSegmentRecs) }

// planSegmentsAligned is planSegments with an explicit interior-boundary
// alignment. Streaming sources pass their block size (always a multiple of
// minSegmentRecs) so every segment covers whole blocks and no block is
// decoded by two scan workers; k is clamped so every segment holds at least
// align records, which keeps the boundaries strictly increasing after
// alignment.
func planSegmentsAligned(n, k, align int) []int {
	if maxK := n / align; k > maxK {
		k = maxK
	}
	if k <= 1 {
		return []int{0, n}
	}
	bounds := make([]int, k+1)
	for s := 1; s < k; s++ {
		bounds[s] = n * s / k / align * align
	}
	bounds[k] = n
	return bounds
}

// anchorRecorder wraps a Criteria to record which records it anchored, so
// the stitch can replay anchor control effects in the sequential order
// (anchors fire before the record's own kind switch). Anchoring is
// verdict-independent, so pass-1 observations are final. One instance is
// shared by all segment scans of a criterion: each scan only sets bits of
// its own 64-aligned segment, so the writes are goroutine-disjoint.
type anchorRecorder struct {
	inner Criteria
	bits  Bitset
}

// Name implements Criteria.
func (a *anchorRecorder) Name() string { return a.inner.Name() }

// At implements Criteria.
func (a *anchorRecorder) At(i int, r *trace.Rec, t *trace.Trace) ([]vmem.Range, bool) {
	mem, anchor := a.inner.At(i, r, t)
	if anchor {
		a.bits.Set(i)
	}
	return mem, anchor
}

// sliceSegmented is the segmented parallel engine behind Slice. Its
// output is byte-identical to sliceSequential in every Result field.
func sliceSegmented(src Source, deps *cdg.Deps, cs []Criteria, opts Options, bounds []int) ([]*Result, error) {
	t := src.Shell()
	n := src.NumRecs()
	segs := len(bounds) - 1
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > segs {
		workers = segs
	}

	start := time.Now()

	// maxReg prescan, split across the same worker pool: presizing the
	// per-segment register sets keeps Set/Kill off the grow path.
	maxReg, err := parallelMaxReg(src, bounds, workers)
	if err != nil {
		return nil, err
	}

	// Shared per-criterion outputs, written goroutine-disjointly by segment.
	anchors := make([]*anchorRecorder, len(cs))
	inSlice := make([]Bitset, len(cs))
	for k, c := range cs {
		anchors[k] = &anchorRecorder{inner: c, bits: NewBitset(n)}
		inSlice[k] = NewBitset(n)
	}

	// Phase 1: parallel per-segment scans. states[s][k] is the pass-1 state
	// of segment s for criterion k.
	states := make([][]*sliceState, segs)
	segErrs := make([]error, segs)
	segOpts := opts
	segOpts.ProgressPoints = 0 // progress is reconstructed by the tally phase
	var canceled atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= segs || canceled.Load() {
					return
				}
				states[s], segErrs[s] = scanSegment(src, deps, anchors, inSlice, segOpts, maxReg, bounds[s], bounds[s+1], &canceled)
			}
		}()
	}
	wg.Wait()
	scanMs := msSince(start)
	if canceled.Load() {
		releaseStates(states)
		// A decode failure also trips the cancellation flag; report the
		// lowest-index segment's error over the generic cancellation.
		for _, e := range segErrs {
			if e != nil {
				return nil, e
			}
		}
		return nil, ErrCanceled
	}

	// Phase 2: sequential stitch.
	stitchStart := time.Now()
	stitches := make([]*stitchCrit, len(cs))
	last := states[segs-1]
	for k := range cs {
		stitches[k] = newStitchCrit(t, deps, opts, inSlice[k], anchors[k].bits, last[k], maxReg, n)
	}
	stitchBuf := getRecBuf()
	stitchCanceled := false
	for s := segs - 2; s >= 0 && err == nil && !stitchCanceled; s-- {
		for k, sc := range stitches {
			sc.mergeBottom(states[s+1][k])
		}
		err = reverseWindows(src, bounds[s], bounds[s+1], stitchBuf, func(wlo int, recs []trace.Rec) bool {
			for i := wlo + len(recs) - 1; i >= wlo; i-- {
				if opts.Canceled != nil && i&(cancelStride-1) == 0 && opts.Canceled() {
					stitchCanceled = true
					return false
				}
				r := &recs[i-wlo]
				for _, sc := range stitches {
					sc.record(i, r)
				}
			}
			return true
		})
	}
	putRecBuf(stitchBuf)
	if err == nil && stitchCanceled {
		err = ErrCanceled
	}
	if err != nil {
		releaseStates(states)
		releaseStitches(stitches)
		return nil, err
	}
	stitchMs := msSince(stitchStart)

	// Phase 3: assemble results and reconstruct the progress curves with
	// parallel per-segment scans of the final slice bitsets.
	tallyStart := time.Now()
	out := make([]*Result, len(cs))
	for k, c := range cs {
		out[k] = assembleResult(t, n, c, states, stitches[k], inSlice[k], k)
	}
	if err := fillProgress(src, opts, bounds, inSlice, out, workers, &canceled); err != nil {
		releaseStates(states)
		releaseStitches(stitches)
		return nil, err
	}
	releaseStates(states)
	releaseStitches(stitches)
	if opts.Stats != nil {
		*opts.Stats = PassStats{
			Segments: segs,
			ScanMs:   scanMs,
			StitchMs: stitchMs,
			TallyMs:  msSince(tallyStart),
		}
	}
	return out, nil
}

// scanSegment runs the unmodified fused liveness walk over records [lo, hi)
// with an empty incoming live state, one sliceState per criterion. Shared
// bitset writes stay inside the segment's 64-aligned word range. Streaming
// sources decode the segment one block at a time into a pooled window; a
// decode failure trips the shared cancellation flag so sibling scans stop.
func scanSegment(src Source, deps *cdg.Deps, anchors []*anchorRecorder, inSlice []Bitset, opts Options, maxReg uint32, lo, hi int, canceled *atomic.Bool) ([]*sliceState, error) {
	t := src.Shell()
	n := src.NumRecs()
	sts := make([]*sliceState, len(anchors))
	for k, a := range anchors {
		sts[k] = &sliceState{
			t:    t,
			deps: deps,
			crit: a,
			opts: opts,
			res: &Result{
				Criteria: a.Name(),
				Total:    n,
				InSlice:  inSlice[k],
			},
			live:        getWordSet(),
			regs:        getRegSet(maxReg, n),
			byFunc:      make([]int, len(t.Funcs)),
			sliceByFunc: make([]int, len(t.Funcs)),
		}
	}
	buf := getRecBuf()
	defer putRecBuf(buf)
	err := reverseWindows(src, lo, hi, buf, func(wlo int, recs []trace.Rec) bool {
		for i := wlo + len(recs) - 1; i >= wlo; i-- {
			if i&(cancelStride-1) == 0 {
				if canceled.Load() {
					return false
				}
				if opts.Canceled != nil && opts.Canceled() {
					canceled.Store(true)
					return false
				}
			}
			r := &recs[i-wlo]
			for _, s := range sts {
				s.step(i, r)
			}
		}
		return true
	})
	if err != nil {
		canceled.Store(true)
		return sts, err
	}
	return sts, nil
}

// releaseStates returns the pooled scratch of pass-1 states. It must run
// after the last read of any state — the stitch adopts the last segment's
// thread states, so this is only called once stitching and assembly are
// fully done (or abandoned).
func releaseStates(states [][]*sliceState) {
	for _, segStates := range states {
		for _, s := range segStates {
			if s == nil {
				continue
			}
			putRegSet(s.regs)
			putWordSet(s.live)
			for _, th := range s.threads {
				putThreadState(th)
			}
		}
	}
}

func releaseStitches(stitches []*stitchCrit) {
	for _, sc := range stitches {
		putRegSet(sc.dregs)
		putWordSet(sc.dlive)
	}
}

// stitchCrit is the per-criterion state of the sequential stitch: the delta
// liveness D (registers + memory the later segments propagate into earlier
// ones beyond what their local scans saw) and the TRUE call-frame state.
// Invariant while walking segment s: P_s ∪ D = T, where P_s is segment s's
// pass-1 state at the same record and T the sequential state. D may hold
// entries also in P_s (always subsets of T), which at worst re-marks an
// already-marked record — verdicts are disjunctions, so duplicates are
// harmless and cheaper than exact set difference.
type stitchCrit struct {
	t       *trace.Trace
	deps    *cdg.Deps
	noCDG   bool
	inSlice Bitset
	anchors Bitset

	dregs   *regSet
	dlive   *wordSet
	threads [256]*threadState

	// Fix-ups for verdict-dependent tallies the scan undercounted.
	newMarks      int
	pendingLeft   int
	sliceByThread [256]int
	sliceByFunc   []int
}

func newStitchCrit(t *trace.Trace, deps *cdg.Deps, opts Options, inSlice, anchors Bitset, last *sliceState, maxReg uint32, n int) *stitchCrit {
	sc := &stitchCrit{
		t:           t,
		deps:        deps,
		noCDG:       opts.NoControlDeps,
		inSlice:     inSlice,
		anchors:     anchors,
		dregs:       getRegSet(maxReg, n),
		dlive:       getWordSet(),
		sliceByFunc: make([]int, len(t.Funcs)),
	}
	// The last segment's scan saw the true end-of-trace state: adopt its
	// call frames (its relative depths ARE absolute — the sequential walk
	// also starts at depth 0 at the end of the trace).
	sc.threads = last.threads
	return sc
}

// mergeBottom folds a finished segment's bottom liveness into the delta:
// crossing the boundary below segment s, everything that survived s's local
// scan becomes incoming liveness for the records before it.
func (sc *stitchCrit) mergeBottom(s *sliceState) {
	sc.dregs.orFrom(s.regs)
	sc.dlive.mergeFrom(s.live)
}

func (sc *stitchCrit) thread(tid uint8) *threadState {
	th := sc.threads[tid]
	if th == nil {
		th = &threadState{}
		sc.threads[tid] = th
	}
	return th
}

// applyMarkEffects replays the frame side of markSlice for a record in the
// slice: flag the current frame as contributing and schedule the record's
// control-dependence branches. Both are idempotent, so re-applying for a
// record whose effects the delta already produced is harmless.
func (sc *stitchCrit) applyMarkEffects(r *trace.Rec, th *threadState) {
	fr := th.frames.at(th.depth)
	fr.contrib = true
	if sc.noCDG || sc.deps == nil {
		return
	}
	for _, bpc := range sc.deps.Of(r.PC) {
		fr.addPending(bpc)
	}
}

// hit resolves a deferred verdict: record i is in the true slice because of
// liveness flowing in from later segments. Marks it if the local scan did
// not, tallies the correction, and applies the frame effects.
func (sc *stitchCrit) hit(i int, r *trace.Rec, th *threadState) {
	if !sc.inSlice.Get(i) {
		sc.inSlice.Set(i)
		sc.newMarks++
		sc.sliceByThread[r.TID]++
		bumpFunc(&sc.sliceByFunc, r.Func())
	}
	sc.applyMarkEffects(r, th)
}

// record advances the stitch over one record, mirroring sliceState.step
// against the delta state: kills test D, gens (applied only on a hit) feed
// D, and the true frames decide branch/call verdicts. Gen effects are
// applied on every D-hit even for records the scan already marked — an
// anchored record whose local kill missed never ran its gens, and the
// duplicates are harmless (see the stitchCrit invariant).
func (sc *stitchCrit) record(i int, r *trace.Rec) {
	th := sc.thread(r.TID)
	anchored := sc.anchors.Get(i)
	if anchored {
		// Sequentially, criteria anchor a record before its kind switch
		// runs, so a self-dependent branch can consume the pending branch
		// its own anchoring scheduled. Replay in the same order.
		sc.applyMarkEffects(r, th)
	}
	switch r.Kind {
	case isa.KindConst:
		if sc.dregs.Kill(uint32(r.Dst)) {
			sc.hit(i, r, th)
		}
	case isa.KindOp:
		if sc.dregs.Kill(uint32(r.Dst)) {
			sc.hit(i, r, th)
			sc.setReg(r.Src1)
			sc.setReg(r.Src2)
		}
	case isa.KindLoad:
		if sc.dregs.Kill(uint32(r.Dst)) {
			sc.hit(i, r, th)
			sc.dlive.Add(r.MemRange())
			sc.setReg(r.Src2)
		}
	case isa.KindStore:
		if sc.dlive.Kill(r.MemRange()) {
			sc.hit(i, r, th)
			sc.setReg(r.Src1)
			sc.setReg(r.Src2)
		}
	case isa.KindBranch:
		if !sc.noCDG && th.frames.at(th.depth).takePending(r.PC) {
			sc.hit(i, r, th)
			sc.setReg(r.Src1)
		}
	case isa.KindRet:
		th.depth++
		th.frames.at(th.depth).reset()
		return
	case isa.KindCall:
		fr := th.frames.at(th.depth)
		contributed := fr.contrib
		sc.pendingLeft += len(fr.pending)
		fr.reset()
		th.depth--
		if contributed && !anchored {
			// Interprocedural control dependence against the TRUE frame.
			// An anchored call was already marked before its frame closed,
			// which sequentially suppresses the outer-frame effects
			// (markSlice early-returns) — skip them here too.
			sc.hit(i, r, th)
		}
		return
	case isa.KindSyscall:
		if eff := sc.t.Sys[i]; eff != nil {
			hit := false
			for _, w := range eff.Writes {
				if sc.dlive.Kill(w) {
					hit = true
				}
			}
			if sc.dregs.Kill(uint32(r.Dst)) {
				hit = true
			}
			if hit {
				sc.hit(i, r, th)
				for _, rd := range eff.Reads {
					sc.dlive.Add(rd)
				}
			}
		}
	}
	// Records the scan already marked carry control effects (contribution,
	// pending branches) the true frames must see; replay them after the
	// kind switch, exactly where the sequential markSlice ran. Calls and
	// returns are excluded: their frame transitions were fully handled
	// above. Re-applying after a hit in the switch is an idempotent no-op.
	if !anchored && sc.inSlice.Get(i) {
		sc.applyMarkEffects(r, th)
	}
}

func (sc *stitchCrit) setReg(r isa.Reg) {
	if r != isa.RegNone {
		sc.dregs.Set(uint32(r))
	}
}

// finalPendingLeft totals the stitch's true pending residue: branches still
// pending at calls in the stitched segments, the last segment's own final
// pending-call count, and whatever is left on the true frames at the start
// of the trace (truncated traces).
func (sc *stitchCrit) finalPendingLeft(lastSegPending int) int {
	n := sc.pendingLeft + lastSegPending
	for _, th := range sc.threads {
		if th != nil {
			n += th.frames.pendingLeft()
		}
	}
	return n
}

// assembleResult combines the per-segment scan tallies (exact for the
// verdict-independent ones, scan-visible subsets for the rest) with the
// stitch's corrections into the final Result, matching sliceState.finish.
func assembleResult(t *trace.Trace, n int, c Criteria, states [][]*sliceState, sc *stitchCrit, bits Bitset, k int) *Result {
	res := &Result{
		Criteria: c.Name(),
		Total:    n,
		InSlice:  bits,
	}
	var byThread, sliceByThread [256]int
	byFunc := make([]int, len(t.Funcs))
	sliceByFunc := make([]int, len(t.Funcs))
	copy(sliceByThread[:], sc.sliceByThread[:])
	copy(sliceByFunc, sc.sliceByFunc)
	res.SliceCount = sc.newMarks
	for _, segStates := range states {
		s := segStates[k]
		res.SliceCount += s.res.SliceCount
		for tid := 0; tid < 256; tid++ {
			byThread[tid] += s.byThread[tid]
			sliceByThread[tid] += s.sliceByThread[tid]
		}
		for fn, cnt := range s.byFunc {
			if cnt > 0 {
				bumpFuncN(&byFunc, trace.FuncID(fn), cnt)
			}
		}
		for fn, cnt := range s.sliceByFunc {
			if cnt > 0 {
				bumpFuncN(&sliceByFunc, trace.FuncID(fn), cnt)
			}
		}
	}
	res.PendingLeft = sc.finalPendingLeft(states[len(states)-1][k].res.PendingLeft)
	res.ByThread = make(map[uint8]int)
	res.SliceByThread = make(map[uint8]int)
	for tid := 0; tid < 256; tid++ {
		if byThread[tid] > 0 {
			res.ByThread[uint8(tid)] = byThread[tid]
		}
		if sliceByThread[tid] > 0 {
			res.SliceByThread[uint8(tid)] = sliceByThread[tid]
		}
	}
	res.ByFunc = make(map[trace.FuncID]int)
	res.SliceByFunc = make(map[trace.FuncID]int)
	for fn, cnt := range byFunc {
		if cnt > 0 {
			res.ByFunc[trace.FuncID(fn)] = cnt
		}
	}
	for fn, cnt := range sliceByFunc {
		if cnt > 0 {
			res.SliceByFunc[trace.FuncID(fn)] = cnt
		}
	}
	return res
}

// bumpFuncN is bumpFunc for a batch of cnt records.
func bumpFuncN(tally *[]int, fn trace.FuncID, cnt int) {
	if int(fn) >= len(*tally) {
		*tally = append(*tally, make([]int, int(fn)+1-len(*tally))...)
	}
	(*tally)[fn] += cnt
}

// segProgress is one segment's contribution to a criterion's progress
// curve: sample points with segment-local cumulative counts, plus the
// segment totals the suffix fix-up folds into earlier segments' points.
type segProgress struct {
	points                            []ProgressPoint
	sliced, mainProcessed, mainSliced int
}

// fillProgress reconstructs each Result's backward-progress curve (paper
// Figure 4) from the final slice bitsets. Marks only ever happen during a
// record's own step, so the sequential walk's cumulative "sliced" counter
// at record i equals the number of set bits in [i, n) of the FINAL bitset —
// per-segment backward scans plus a sequential suffix-sum fix-up rebuild
// the exact samples the sequential pass would have emitted.
func fillProgress(src Source, opts Options, bounds []int, inSlice []Bitset, out []*Result, workers int, canceled *atomic.Bool) error {
	if opts.ProgressPoints <= 0 {
		return nil
	}
	n := src.NumRecs()
	sampleEvery := n / opts.ProgressPoints
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	segs := len(bounds) - 1
	parts := make([][]segProgress, segs) // parts[s][k]
	segErrs := make([]error, segs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= segs || canceled.Load() {
					return
				}
				parts[s], segErrs[s] = progressSegment(src, opts, inSlice, bounds[s], bounds[s+1], sampleEvery, canceled)
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		for _, e := range segErrs {
			if e != nil {
				return e
			}
		}
		return ErrCanceled
	}
	for k, res := range out {
		// Suffix sums over later segments turn local cumulatives into the
		// global ones; points flow end-of-trace first, like the walk.
		var sufSliced, sufMainProc, sufMainSliced int
		for s := segs - 1; s >= 0; s-- {
			p := parts[s][k]
			for _, pt := range p.points {
				res.Progress = append(res.Progress, ProgressPoint{
					Processed:     pt.Processed,
					Sliced:        pt.Sliced + sufSliced,
					MainProcessed: pt.MainProcessed + sufMainProc,
					MainSliced:    pt.MainSliced + sufMainSliced,
				})
			}
			sufSliced += p.sliced
			sufMainProc += p.mainProcessed
			sufMainSliced += p.mainSliced
		}
		if len(res.Progress) == 0 || res.Progress[len(res.Progress)-1].Processed != n {
			res.Progress = append(res.Progress, ProgressPoint{
				Processed:     n,
				Sliced:        res.SliceCount,
				MainProcessed: res.ByThread[opts.MainThread],
				MainSliced:    res.SliceByThread[opts.MainThread],
			})
		}
	}
	return nil
}

// progressSegment scans records [lo, hi) backward, emitting the criterion
// sample points that fall inside the segment with segment-local cumulative
// counts. The sequential pass samples when its processed counter (n-i after
// stepping record i) hits a multiple of sampleEvery. A decode failure trips
// the shared cancellation flag.
func progressSegment(src Source, opts Options, inSlice []Bitset, lo, hi, sampleEvery int, canceled *atomic.Bool) ([]segProgress, error) {
	n := src.NumRecs()
	parts := make([]segProgress, len(inSlice))
	buf := getRecBuf()
	defer putRecBuf(buf)
	err := reverseWindows(src, lo, hi, buf, func(wlo int, recs []trace.Rec) bool {
		for i := wlo + len(recs) - 1; i >= wlo; i-- {
			if i&(cancelStride-1) == 0 && canceled.Load() {
				return false
			}
			r := &recs[i-wlo]
			main := r.TID == opts.MainThread
			processed := n - i
			for k := range parts {
				p := &parts[k]
				marked := inSlice[k].Get(i)
				if marked {
					p.sliced++
				}
				if main {
					p.mainProcessed++
					if marked {
						p.mainSliced++
					}
				}
				if processed%sampleEvery == 0 {
					p.points = append(p.points, ProgressPoint{processed, p.sliced, p.mainProcessed, p.mainSliced})
				}
			}
		}
		return true
	})
	if err != nil {
		canceled.Store(true)
		return parts, err
	}
	return parts, nil
}

// parallelMaxReg splits the register prescan across the segment bounds.
func parallelMaxReg(src Source, bounds []int, workers int) (uint32, error) {
	segs := len(bounds) - 1
	if workers <= 1 || segs <= 1 {
		buf := getRecBuf()
		defer putRecBuf(buf)
		return maxRegOfSource(src, 0, src.NumRecs(), buf)
	}
	maxes := make([]uint32, segs)
	segErrs := make([]error, segs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := getRecBuf()
			defer putRecBuf(buf)
			for {
				s := int(next.Add(1)) - 1
				if s >= segs {
					return
				}
				maxes[s], segErrs[s] = maxRegOfSource(src, bounds[s], bounds[s+1], buf)
			}
		}()
	}
	wg.Wait()
	for _, e := range segErrs {
		if e != nil {
			return 0, e
		}
	}
	var max uint32
	for _, m := range maxes {
		if m > max {
			max = m
		}
	}
	return max, nil
}
