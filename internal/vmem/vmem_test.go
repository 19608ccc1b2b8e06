package vmem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte("hello, web world")
	m.WriteBytes(0x1000_0000, data)
	got := m.ReadBytes(0x1000_0000, len(data))
	if !bytes.Equal(got, data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
}

func TestMemoryCrossPageWrite(t *testing.T) {
	m := NewMemory()
	a := Addr(PageSize - 3) // straddles a page boundary
	data := []byte{1, 2, 3, 4, 5, 6}
	m.WriteBytes(a, data)
	if got := m.ReadBytes(a, 6); !bytes.Equal(got, data) {
		t.Errorf("cross-page round trip = %v, want %v", got, data)
	}
	if len(m.pages) != 2 {
		t.Errorf("%d pages materialized, want 2", len(m.pages))
	}
}

func TestMemoryUnmappedReadsZero(t *testing.T) {
	m := NewMemory()
	got := m.ReadBytes(0xDEAD_0000, 8)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Errorf("unmapped read = %v, want zeros", got)
	}
	if v := m.ReadU64(0xDEAD_0000, 8); v != 0 {
		t.Errorf("unmapped ReadU64 = %d, want 0", v)
	}
}

func TestU64RoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(a uint32, v uint64, szRaw uint8) bool {
		sz := int(szRaw%8) + 1
		addr := Addr(a)
		m.WriteU64(addr, sz, v)
		got := m.ReadU64(addr, sz)
		want := v
		if sz < 8 {
			want = v & ((1 << (8 * uint(sz))) - 1)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestU64LittleEndian(t *testing.T) {
	m := NewMemory()
	m.WriteU64(100, 4, 0x04030201)
	if got := m.ReadBytes(100, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("bytes = %v, want little-endian 1..4", got)
	}
}

func TestBadSizesPanic(t *testing.T) {
	m := NewMemory()
	for _, f := range []func(){
		func() { m.ReadU64(0, 0) },
		func() { m.ReadU64(0, 9) },
		func() { m.WriteU64(0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad size")
				}
			}()
			f()
		}()
	}
}

func TestArenaAllocation(t *testing.T) {
	a := NewArena("test", HeapBase, 1024)
	p1 := a.Alloc(10)
	p2 := a.Alloc(1)
	if p1 != HeapBase {
		t.Errorf("first alloc = %#x, want %#x", p1, HeapBase)
	}
	if p2 != HeapBase+16 {
		t.Errorf("second alloc = %#x, want 8-aligned %#x", p2, HeapBase+16)
	}
	if a.Used() != 24 {
		t.Errorf("Used = %d, want 24", a.Used())
	}
	if a.base != HeapBase {
		t.Errorf("base = %#x", a.base)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := NewArena("tiny", 0x1000, 16)
	a.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Error("expected exhaustion panic")
		}
	}()
	a.Alloc(1)
}

func TestStackForDistinct(t *testing.T) {
	seen := map[Addr]bool{}
	for tid := uint8(0); tid < 16; tid++ {
		b := StackFor(tid)
		if seen[b] {
			t.Errorf("duplicate stack base %#x for tid %d", b, tid)
		}
		seen[b] = true
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{100, 10}
	if r.End() != 110 {
		t.Errorf("End = %d", r.End())
	}
	if r.String() == "" {
		t.Error("Range should print")
	}
}

// TestMemoryMatchesByteMap drives Memory with a seeded random mix of
// accesses and checks every read against a plain map of bytes. Accesses
// straddle page boundaries (the last page's wrap to page 0 too), jump
// between distant pages, and read pages never written, so an access that
// resolves a wrong page, or a page once for bytes on two, fails here.
func TestMemoryMatchesByteMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pages := []uint32{0x10000, 0x10001, 0x10002, 0x10400, 0x40000, 0x7FFFF, 0xFFFFF, 0}
	addr := func() Addr {
		p := pages[rng.Intn(len(pages))]
		off := uint32(rng.Intn(PageSize))
		if rng.Intn(3) == 0 {
			off = PageSize - 1 - uint32(rng.Intn(64)) // straddles into the next page
		}
		return Addr(p*PageSize + off)
	}
	m := NewMemory()
	ref := map[Addr]byte{}
	refRead := func(a Addr, n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = ref[a+Addr(i)]
		}
		return out
	}
	for step := 0; step < 20000; step++ {
		a, op := addr(), rng.Intn(4)
		if rng.Intn(5) == 0 {
			// Read one of four pages no step writes: it must read as
			// zeros.
			a = Addr((0x20000+uint32(rng.Intn(4)))*PageSize + uint32(rng.Intn(PageSize-64)))
			op = 2 + op%2
		}
		switch op {
		case 0:
			size := 1 + rng.Intn(8)
			v := rng.Uint64()
			m.WriteU64(a, size, v)
			for i := 0; i < size; i++ {
				ref[a+Addr(i)] = byte(v >> (8 * i))
			}
		case 1:
			b := make([]byte, 1+rng.Intn(64))
			rng.Read(b)
			m.WriteBytes(a, b)
			for i, c := range b {
				ref[a+Addr(i)] = c
			}
		case 2:
			size := 1 + rng.Intn(8)
			var want uint64
			for i, c := range refRead(a, size) {
				want |= uint64(c) << (8 * i)
			}
			if got := m.ReadU64(a, size); got != want {
				t.Fatalf("step %d: ReadU64(%#x, %d) = %#x, want %#x", step, uint32(a), size, got, want)
			}
		case 3:
			n := 1 + rng.Intn(64)
			if got, want := m.ReadBytes(a, n), refRead(a, n); !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadBytes(%#x, %d) = %v, want %v", step, uint32(a), n, got, want)
			}
		}
	}
}
