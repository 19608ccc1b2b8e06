package core

import (
	"errors"
	"strings"
	"testing"

	"webslice/internal/browser/debuglog"
	"webslice/internal/isa"
	"webslice/internal/obs"
	"webslice/internal/slicer"
	"webslice/internal/trace"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func demoMachine() *vm.Machine {
	m := vm.New()
	m.Thread(0, "CrRendererMain")
	tile := m.Tile.Alloc(64)
	fn := m.Func("render", "blink")
	m.Call(fn, func() {
		v := m.Const(0xFFFFFF)
		m.StoreU32(tile, v)
	})
	debuglog.New(m, 3).Histogram(0)
	m.MarkPixels(vmem.Range{Addr: tile, Size: 64})
	m.Syscall(isa.SysIoctl, isa.RegNone, isa.RegNone, []vmem.Range{{Addr: tile, Size: 64}}, nil, nil)
	return m
}

func TestProfilerEndToEnd(t *testing.T) {
	m := demoMachine()
	p := NewProfiler(m.Tr)
	if err := p.Forward(); err != nil {
		t.Fatal(err)
	}
	if p.Deps == nil {
		t.Fatal("forward products missing")
	}
	pix, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := p.Slice(slicer.SyscallCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	if pix.SliceCount == 0 {
		t.Fatal("pixel slice empty")
	}
	if sys.SliceCount < pix.SliceCount {
		t.Errorf("syscall slice (%d) should include pixel slice (%d)", sys.SliceCount, pix.SliceCount)
	}
	if pix.Percent() >= 100 {
		t.Error("bookkeeping should be excluded from the pixel slice")
	}
	// The debug function's records must be outside the pixel slice.
	for i := range m.Tr.Recs {
		if m.Tr.Namespace(m.Tr.Recs[i].Func()) == "base/debug" && pix.InSlice.Get(i) {
			t.Errorf("debug record %d wrongly in pixel slice", i)
		}
	}
}

func TestSliceOnDemandForward(t *testing.T) {
	m := demoMachine()
	p := NewProfiler(m.Tr)
	// No explicit Forward call: Slice must run it on demand.
	if _, err := p.Slice(slicer.PixelCriteria{}); err != nil {
		t.Fatal(err)
	}
}

// TestSliceVerifiesInvariants: VerifyInvariants applies to every slice the
// profiler returns, not only to results that pass through a store.
func TestSliceVerifiesInvariants(t *testing.T) {
	tr := obs.New(64, nil)
	root := tr.Root("test")
	p := NewProfiler(demoMachine().Tr)
	p.VerifyInvariants = true
	p.Obs = root
	if _, err := p.Slice(slicer.PixelCriteria{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	for _, s := range tr.Snapshot() {
		if s.Name == "verify" {
			if s.Parent != root.Context().Span {
				t.Errorf("verify span parent = %q, want %q", s.Parent, root.Context().Span)
			}
			return
		}
	}
	t.Fatal("Slice with VerifyInvariants recorded no verify span")
}

// TestSliceErrors: a forward pass that cannot build the trace's CFG fails
// the slice, and so does a Canceled hook that fires at either of the pass's
// polls, before the CFG is built or before the control dependence graph
// is; neither leaves a forward pass behind. A nil criterion is the
// backward pass's error.
func TestSliceErrors(t *testing.T) {
	tr := trace.New()
	f, _ := tr.AddFunc("f", "blink")
	g, _ := tr.AddFunc("g", "blink")
	tr.Recs = []trace.Rec{
		{PC: trace.MakePC(f, 0), Kind: isa.KindConst, Dst: 1},
		{PC: trace.MakePC(g, 0), Kind: isa.KindConst, Dst: 2}, // no call between them
	}
	p := NewProfiler(tr)
	if _, err := p.Slice(slicer.PixelCriteria{}); err == nil || !strings.Contains(err.Error(), "core: forward pass") || p.Deps != nil {
		t.Errorf("unbalanced trace: err = %v, want a forward-pass error and no forward pass", err)
	}
	for fireAt := 1; fireAt <= 2; fireAt++ {
		p := NewProfiler(demoMachine().Tr)
		polls := 0
		p.Opts.Canceled = func() bool { polls++; return polls == fireAt }
		if _, err := p.Slice(slicer.PixelCriteria{}); !errors.Is(err, slicer.ErrCanceled) || p.Deps != nil {
			t.Errorf("hook firing at poll %d: err = %v; want ErrCanceled and no forward pass", fireAt, err)
		}
	}
	if _, err := NewProfiler(demoMachine().Tr).Slice(nil); err == nil {
		t.Error("a nil criterion sliced without error")
	}
}
