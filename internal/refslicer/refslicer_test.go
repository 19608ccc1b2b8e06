package refslicer

import (
	"testing"

	"webslice/internal/browser/debuglog"
	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/isa"
	"webslice/internal/slicer"
	"webslice/internal/trace"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func forward(t *testing.T, tr *trace.Trace) *cdg.Deps {
	t.Helper()
	f, err := cfg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return cdg.Compute(f)
}

// workload exercises every record kind: loops, calls, cross-thread flow,
// dead bookkeeping, input and output syscalls, and pixel markers.
func workload() *vm.Machine {
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "worker")
	tile := m.Tile.Alloc(64)
	net := m.IOb.Alloc(32)
	inbuf := m.IOb.Alloc(16)

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
	debuglog.New(m, 12).Histogram(0)

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

func TestNaiveAgreesWithOptimized(t *testing.T) {
	m := workload()
	deps := forward(t, m.Tr)
	criteria := []slicer.Criteria{
		slicer.PixelCriteria{},
		slicer.SyscallCriteria{},
		slicer.Union{slicer.PixelCriteria{}, slicer.SyscallCriteria{}},
		slicer.Window{Inner: slicer.SyscallCriteria{}, Limit: len(m.Tr.Recs) / 2},
	}
	for _, noCDG := range []bool{false, true} {
		for _, c := range criteria {
			ref, err := Slice(m.Tr, deps, c, noCDG)
			if err != nil {
				t.Fatalf("refslicer %s noCDG=%v: %v", c.Name(), noCDG, err)
			}
			// The slicer's data-only slice is its slice over an empty graph.
			sdeps := deps
			if noCDG {
				sdeps = &cdg.Deps{}
			}
			got, err := slicer.Slice(m.Tr, sdeps, c, slicer.Options{})
			if err != nil {
				t.Fatalf("slicer %s noCDG=%v: %v", c.Name(), noCDG, err)
			}
			if err := Equal(ref, got); err != nil {
				t.Errorf("%s noCDG=%v: %v", c.Name(), noCDG, err)
			}
			if !noCDG && c.Name() == "pixels" && ref.SliceCount == 0 {
				t.Error("degenerate workload: empty pixel slice")
			}
		}
	}
}

func TestEqualNamesFirstDivergence(t *testing.T) {
	m := workload()
	deps := forward(t, m.Tr)
	ref, err := Slice(m.Tr, deps, slicer.PixelCriteria{}, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := slicer.Slice(m.Tr, deps, slicer.PixelCriteria{}, slicer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit: Equal must report that exact index.
	for i := range ref.InSlice {
		if ref.InSlice[i] {
			ref.InSlice[i] = false
			break
		}
	}
	if err := Equal(ref, got); err == nil {
		t.Error("Equal accepted a perturbed reference result")
	}
}

func TestSliceValidation(t *testing.T) {
	m := workload()
	if _, err := Slice(m.Tr, nil, slicer.PixelCriteria{}, false); err == nil {
		t.Error("nil deps without noCDG should be rejected")
	}
	if _, err := Slice(m.Tr, nil, nil, true); err == nil {
		t.Error("nil criteria should be rejected")
	}
	if _, err := Slice(m.Tr, nil, slicer.PixelCriteria{}, true); err != nil {
		t.Errorf("noCDG run without deps should work: %v", err)
	}
}
