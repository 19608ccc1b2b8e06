package slicer

import "sync"

// The slicing service runs many backward passes over a process lifetime,
// each needing a live-register set, a live-memory set, and call-frame
// stacks — all three kinds of scratch are pooled here. Pooled
// objects are reset on Get, never on Put, so a stale object can never leak
// state into a pass.

var regSetPool = sync.Pool{New: func() any { return new(regSet) }}

// regSetPresizeFloor is the smallest dense register set: below this a
// dense allocation is too cheap to size more tightly.
const regSetPresizeFloor = 1 << 16

// getRegSet returns a cleared register set whose dense part covers every
// register ID a trace of n records can define (IDs 0..n).
func getRegSet(n int) *regSet {
	b := regSetPool.Get().(*regSet)
	b.reset(max(n+1, regSetPresizeFloor))
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
