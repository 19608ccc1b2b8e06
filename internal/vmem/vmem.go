// Package vmem implements the simulated virtual address space of the traced
// machine: sparse paged byte memory with real contents, region-based bump
// allocation, and address-range arithmetic.
//
// The profiler needs exact addresses (the paper's traces contain the precise
// memory locations every instruction touched, which is what lets the slicer
// sidestep the aliasing problem), and the simulated browser engine keeps its
// real data — DOM nodes, computed styles, JavaScript bytecode, display lists,
// pixels — in this memory so the dataflow the slicer observes is honest.
package vmem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a virtual address. The machine has a 32-bit address space.
type Addr uint32

// PageSize is the granularity of backing allocation.
const PageSize = 4096

// Region bases. Each class of data gets its own megabyte-aligned region so
// trace dumps and slicer diagnostics are easy to read.
const (
	CodeBase  Addr = 0x0800_0000 // reserved; code is addressed by PC, not data address
	HeapBase  Addr = 0x1000_0000 // general engine heap (DOM, CSSOM, bytecode, ...)
	TileBase  Addr = 0x4000_0000 // rasterizer tile backing stores
	FrameBase Addr = 0x5000_0000 // compositor output framebuffer
	IOBase    Addr = 0x6000_0000 // network/IPC staging buffers
	StackBase Addr = 0x7000_0000 // per-thread stacks, 16 MiB apart
	StackSpan Addr = 0x0100_0000
)

// StackFor returns the stack region base for a thread.
func StackFor(tid uint8) Addr { return StackBase + Addr(tid)*StackSpan }

// Memory is a sparse paged byte store.
type Memory struct {
	pages map[uint32]*[PageSize]byte
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[PageSize]byte)}
}

// page returns the page holding a, or nil if it is unmapped and create is
// false, and a's offset in it.
func (m *Memory) page(a Addr, create bool) (*[PageSize]byte, int) {
	idx := uint32(a) / PageSize
	p := m.pages[idx]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[idx] = p
	}
	return p, int(uint32(a) % PageSize)
}

// WriteBytes copies b into memory at a.
func (m *Memory) WriteBytes(a Addr, b []byte) {
	for len(b) > 0 {
		p, off := m.page(a, true)
		n := copy(p[off:], b)
		b = b[n:]
		a += Addr(n)
	}
}

// ReadBytes copies n bytes at a into a fresh slice. Unmapped bytes read as 0.
func (m *Memory) ReadBytes(a Addr, n int) []byte {
	out := make([]byte, n)
	m.read(a, out)
	return out
}

// read fills dst, which must be zeroed, with the bytes at a.
func (m *Memory) read(a Addr, dst []byte) {
	for len(dst) > 0 {
		p, off := m.page(a, false)
		n := min(PageSize-off, len(dst))
		if p != nil {
			copy(dst, p[off:off+n])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// ReadU64 reads size (1..8) bytes little-endian at a, zero-extended.
func (m *Memory) ReadU64(a Addr, size int) uint64 {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("vmem: bad read size %d", size))
	}
	var b [8]byte
	m.read(a, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes the low size (1..8) bytes of v little-endian at a.
func (m *Memory) WriteU64(a Addr, size int, v uint64) {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("vmem: bad write size %d", size))
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(a, b[:size])
}

// Arena is a bump allocator carving a region of the address space.
type Arena struct {
	Name  string
	base  Addr
	next  Addr
	limit Addr
}

// NewArena creates an allocator over [base, base+size).
func NewArena(name string, base Addr, size Addr) *Arena {
	return &Arena{Name: name, base: base, next: base, limit: base + size}
}

// Alloc reserves n bytes aligned to 8 and returns the base address.
func (a *Arena) Alloc(n int) Addr {
	if n < 0 {
		panic("vmem: negative alloc")
	}
	sz := Addr((n + 7) &^ 7)
	if a.next+sz > a.limit || a.next+sz < a.next {
		panic(fmt.Sprintf("vmem: arena %q exhausted (want %d bytes, %d left)", a.Name, n, a.limit-a.next))
	}
	p := a.next
	a.next += sz
	return p
}

// Used reports how many bytes have been allocated.
func (a *Arena) Used() int { return int(a.next - a.base) }

// Range is a half-open address interval [Addr, Addr+Size).
type Range struct {
	Addr Addr
	Size uint32
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Addr + Addr(r.Size) }

func (r Range) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint32(r.Addr), uint32(r.End()))
}
