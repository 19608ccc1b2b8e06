package slicer

// Bitset is a fixed-size bitset over record indices.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// regSet is the live-register set of the liveness analysis, with
// destructive test-and-clear. Registers are SSA (written once), so Kill at
// the defining instruction both answers "was this value needed?" and
// retires the register.
//
// VM registers are numbered in creation order, one record each, so a real
// trace never names a register above its record count. The dense bitset is
// sized from the record count before the walk (see getRegSet) and never
// grows; the rare ID beyond it — only a malformed trace names one — lives
// in the far map, so memory stays bounded by the trace's records whatever
// IDs its operands claim.
type regSet struct {
	words []uint64
	far   map[uint32]struct{}
}

// Set marks register id live.
func (b *regSet) Set(id uint32) {
	if w := int(id >> 6); w < len(b.words) {
		b.words[w] |= 1 << (id & 63)
		return
	}
	if b.far == nil {
		b.far = make(map[uint32]struct{})
	}
	b.far[id] = struct{}{}
}

// Kill clears register id and reports whether it was live.
func (b *regSet) Kill(id uint32) bool {
	if w := int(id >> 6); w < len(b.words) {
		mask := uint64(1) << (id & 63)
		was := b.words[w]&mask != 0
		b.words[w] &^= mask
		return was
	}
	if _, ok := b.far[id]; ok {
		delete(b.far, id)
		return true
	}
	return false
}

// reset empties the set and sizes its dense part for IDs below bits,
// reusing the backing array when it is large enough.
func (b *regSet) reset(bits int) {
	w := (bits + 63) / 64
	if w > cap(b.words) {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		clear(b.words)
	}
	clear(b.far)
}
