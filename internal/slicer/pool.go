package slicer

import (
	"runtime"
	"sync"

	"webslice/internal/trace"
)

// The segmented backward pass multiplies the number of live-register sets,
// live-memory sets, and call-frame stacks by the segment count, and the
// slicing service runs many passes over a process lifetime — all three kinds
// of scratch are pooled here. Pooled objects are reset on Get, never on Put,
// so a stale object can never leak state into a pass.

var regSetPool = sync.Pool{New: func() any { return new(regSet) }}

// regSetPresizeFloor is the smallest presized register set: below this a
// dense allocation is cheap enough to never bother growing lazily.
const regSetPresizeFloor = 1 << 16

// getRegSet returns a cleared register set presized for a trace of n
// records whose largest register operand is maxReg. The presize is capped
// proportional to the trace (a hostile trace naming astronomical register
// IDs falls back to lazy growth in Set, same as an unsized set).
func getRegSet(maxReg uint32, n int) *regSet {
	b := regSetPool.Get().(*regSet)
	b.reset()
	capBits := 4 * n
	if capBits < regSetPresizeFloor {
		capBits = regSetPresizeFloor
	}
	b.presize(maxReg, capBits)
	return b
}

func putRegSet(b *regSet) {
	if b != nil {
		regSetPool.Put(b)
	}
}

var wordSetPool = sync.Pool{New: func() any { return &wordSet{words: make(map[uint32]uint64)} }}

// getWordSet returns an empty live-memory set, reusing map buckets from a
// previous pass when the pool has one.
func getWordSet() *wordSet {
	s := wordSetPool.Get().(*wordSet)
	s.reset()
	return s
}

func putWordSet(s *wordSet) {
	if s != nil {
		wordSetPool.Put(s)
	}
}

var recBufPool = sync.Pool{New: func() any { return new([]trace.Rec) }}

// getRecBuf returns a record window buffer for streaming walks; its capacity
// grows to the source's block size on first use and is kept across passes.
func getRecBuf() *[]trace.Rec {
	return recBufPool.Get().(*[]trace.Rec)
}

func putRecBuf(b *[]trace.Rec) {
	if b != nil {
		*b = (*b)[:0]
		recBufPool.Put(b)
	}
}

var threadStatePool = sync.Pool{New: func() any { return new(threadState) }}

// getThreadState returns a zero-depth thread state whose frame stack keeps
// the pending-list capacity of its previous life.
func getThreadState() *threadState {
	th := threadStatePool.Get().(*threadState)
	th.depth = 0
	th.frames.resetAll()
	return th
}

func putThreadState(th *threadState) {
	if th != nil {
		threadStatePool.Put(th)
	}
}

// resetAll clears every frame in place, keeping both the per-depth slices
// and each frame's pending capacity for reuse.
func (s *frameStack) resetAll() {
	for i := range s.pos {
		s.pos[i].reset()
	}
	for i := range s.neg {
		s.neg[i].reset()
	}
}

// defaultWorkers is the worker count when Options.Workers is unset.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
