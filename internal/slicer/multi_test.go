package slicer

// Two criteria, two walks: the pixel and syscall slices of one trace come
// from independent backward passes that reuse each other's pooled scratch
// but never its state.

import (
	"testing"

	"webslice/internal/browser/debuglog"
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
	debuglog.New(m, 12).Histogram(0) // dead bookkeeping, must stay out of both slices

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

func TestSlicesShareScratchNotState(t *testing.T) {
	m := multiWorkload()
	deps := forward(t, m.Tr)
	// The syscall walk runs first, so the pixel walk gets its pooled
	// scratch back: state left behind would pull the beacon flow into the
	// pixel slice and collapse the two slices together.
	sys, err := Slice(m.Tr, deps, SyscallCriteria{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pix, err := Slice(m.Tr, deps, PixelCriteria{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pix.SliceCount == 0 || sys.SliceCount == 0 {
		t.Fatalf("degenerate workload: pixel=%d syscall=%d slice records", pix.SliceCount, sys.SliceCount)
	}
	if sys.SliceCount <= pix.SliceCount {
		t.Errorf("syscall slice (%d) should be strictly larger than pixel slice (%d)", sys.SliceCount, pix.SliceCount)
	}
	for i := 0; i < pix.Total; i++ {
		if pix.InSlice.Get(i) && !sys.InSlice.Get(i) && m.Tr.Recs[i].Kind != isa.KindMarker {
			t.Errorf("record %d in pixel slice but missing from syscall slice", i)
		}
	}
}
