package slicer

import "webslice/internal/vmem"

// wordSet is the live-memory set of the backward liveness analysis: the set
// of byte addresses whose values are currently needed, kept as a hash map
// from 64-byte-aligned word index to a 64-bit occupancy mask. It is
// memory-proportional to the live footprint and fast for the scattered
// access patterns of real traces. One set is shared by all threads (threads
// share the address space; the paper makes the same argument), while
// registers get per-thread treatment.
type wordSet struct {
	words map[uint32]uint64
}

// splitRange decomposes a byte range into 64-byte-aligned words and masks.
func splitRange(r vmem.Range, f func(word uint32, mask uint64)) {
	if r.Size == 0 {
		return
	}
	a := uint32(r.Addr)
	end := a + r.Size // may wrap only if the range is malformed; ranges come from arenas
	for a < end {
		word := a >> 6
		lo := a & 63
		hi := uint32(64)
		if (word<<6)+64 > end {
			hi = end - word<<6
		}
		mask := ^uint64(0)
		if hi-lo < 64 {
			mask = ((uint64(1) << (hi - lo)) - 1) << lo
		}
		f(word, mask)
		a = word<<6 + 64
	}
}

// Add marks every byte of r live.
func (s *wordSet) Add(r vmem.Range) {
	splitRange(r, func(w uint32, mask uint64) {
		if old := s.words[w]; old|mask != old {
			s.words[w] = old | mask
		}
	})
}

// Kill clears any live bytes inside r (a write defines them) and reports
// whether any were live.
func (s *wordSet) Kill(r vmem.Range) bool {
	hit := false
	splitRange(r, func(w uint32, mask uint64) {
		old, ok := s.words[w]
		if !ok || old&mask == 0 {
			return
		}
		hit = true
		if nw := old &^ mask; nw == 0 {
			delete(s.words, w)
		} else {
			s.words[w] = nw
		}
	})
	return hit
}

// reset empties the set for reuse, keeping the map's allocated buckets.
func (s *wordSet) reset() { clear(s.words) }
