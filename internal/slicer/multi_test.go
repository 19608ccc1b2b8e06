package slicer

// Fused-criteria equivalence: the fused multi-criteria backward pass must
// produce results identical — every statistic, bitset word, and progress
// sample — to independent Slice runs per criterion. The repro pipeline and
// the artifact store both rely on this (cached per-variant results must not
// depend on whether they were computed solo or fused).

import (
	"reflect"
	"testing"

	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// multiWorkload builds a trace exercising every record kind the backward
// pass dispatches on: loops (branches), calls, cross-thread dataflow,
// bookkeeping that never reaches the display, input and output syscalls,
// and pixel markers.
func multiWorkload() *vm.Machine {
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "worker")
	tile := m.Tile.Alloc(64)
	net := m.IOb.Alloc(32)
	inbuf := m.IOb.Alloc(16)
	stats := m.Heap.Alloc(16)

	// External input feeding the pixels.
	m.Syscall(isa.SysRecvfrom, isa.RegNone, isa.RegNone, nil,
		[]vmem.Range{{Addr: inbuf, Size: 8}}, []byte("RESPONSE"))

	render := m.Func("render", "gfx")
	m.Call(render, func() {
		seed := m.LoadU32(inbuf)
		m.Loop("rows", 8, func(i int) {
			v := m.AddImm(seed, uint64(i))
			m.StoreU32(tile+vmem.Addr(4*(i%16)), v)
		})
	})
	m.Bookkeep(stats, 12) // dead bookkeeping, must stay out of both slices

	// Worker thread emits a beacon: syscall slice only.
	m.Switch(1)
	b := m.Const(7)
	m.StoreU32(net, b)
	m.Syscall(isa.SysSendto, isa.RegNone, isa.RegNone,
		[]vmem.Range{{Addr: net, Size: 4}}, nil, nil)
	m.Switch(0)

	m.MarkPixels(vmem.Range{Addr: tile, Size: 32})
	m.Syscall(isa.SysIoctl, isa.RegNone, isa.RegNone,
		[]vmem.Range{{Addr: tile, Size: 32}}, nil, nil)
	return m
}

func TestSliceMultiMatchesIndependentRuns(t *testing.T) {
	m := multiWorkload()
	deps := forward(t, m.Tr)
	for _, opts := range []Options{
		{},
		{ProgressPoints: 16, MainThread: 1},
		{NoControlDeps: true},
	} {
		cs := []Criteria{PixelCriteria{}, SyscallCriteria{}, Union{PixelCriteria{}, SyscallCriteria{}}}
		fused, err := Slice(m.Tr, deps, cs, opts)
		if err != nil {
			t.Fatalf("Slice(%+v): %v", opts, err)
		}
		if len(fused) != len(cs) {
			t.Fatalf("Slice returned %d results for %d criteria", len(fused), len(cs))
		}
		for k, c := range cs {
			solo, err := sliceOne(m.Tr, deps, c, opts)
			if err != nil {
				t.Fatalf("Slice(%s, %+v): %v", c.Name(), opts, err)
			}
			if !reflect.DeepEqual(solo, fused[k]) {
				t.Errorf("opts %+v criterion %s: fused result differs from independent run\nsolo:  %+v\nfused: %+v",
					opts, c.Name(), solo, fused[k])
			}
		}
	}
}

func TestSliceMultiSharesTheWalkNotTheState(t *testing.T) {
	m := multiWorkload()
	deps := forward(t, m.Tr)
	rs, err := Slice(m.Tr, deps, []Criteria{PixelCriteria{}, SyscallCriteria{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pix, sys := rs[0], rs[1]
	if pix.SliceCount == 0 || sys.SliceCount == 0 {
		t.Fatalf("degenerate workload: pixel=%d syscall=%d slice records", pix.SliceCount, sys.SliceCount)
	}
	// The beacon flow makes the syscall slice strictly larger; if criterion
	// states leaked into each other the sets would collapse together.
	if sys.SliceCount <= pix.SliceCount {
		t.Errorf("syscall slice (%d) should be strictly larger than pixel slice (%d)", sys.SliceCount, pix.SliceCount)
	}
	for i := 0; i < pix.Total; i++ {
		if pix.InSlice.Get(i) && !sys.InSlice.Get(i) && m.Tr.Recs[i].Kind != isa.KindMarker {
			t.Errorf("record %d in pixel slice but missing from syscall slice", i)
		}
	}
}

func TestSliceMultiErrors(t *testing.T) {
	m := multiWorkload()
	deps := forward(t, m.Tr)
	if _, err := Slice(m.Tr, deps, nil, Options{}); err == nil {
		t.Error("no criteria should be rejected")
	}
	if _, err := Slice(m.Tr, deps, []Criteria{PixelCriteria{}, nil}, Options{}); err == nil {
		t.Error("nil criteria entry should be rejected")
	}
	if _, err := Slice(m.Tr, nil, []Criteria{PixelCriteria{}}, Options{}); err == nil {
		t.Error("nil deps without NoControlDeps should be rejected")
	}
}
