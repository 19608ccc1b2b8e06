package slicer

// Micro-benchmark backing the hot-loop allocation cuts: per-record work
// should be allocation-free (pending branches live in reusable frame
// slices, per-thread/function tallies in dense arrays).

import (
	"testing"

	"webslice/internal/browser/debuglog"
	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// benchWorkload builds a trace of roughly n*14 records with the shapes the
// real renderer produces: nested calls, data-dependent branches, tile
// stores, bookkeeping, and periodic output syscalls.
func benchWorkload(n int) *vm.Machine {
	m := vm.New()
	m.Thread(0, "main")
	tile := m.Tile.Alloc(4096)
	net := m.IOb.Alloc(64)
	dl := debuglog.New(m, 2)
	render := m.Func("render", "gfx")
	blend := m.Func("blend", "gfx")
	for i := 0; i < n; i++ {
		m.Call(render, func() {
			m.At("head")
			v := m.Const(uint64(i))
			m.Call(blend, func() {
				m.At("body")
				c := m.Const(uint64(i % 2))
				if m.Branch(c) {
					m.At("odd")
					v2 := m.AddImm(v, 1)
					m.StoreU32(tile+vmem.Addr(4*(i%1024)), v2)
				} else {
					m.At("even")
					m.StoreU32(tile+vmem.Addr(4*(i%1024)), v)
				}
			})
			dl.Histogram(uint64(i))
		})
		if i%64 == 0 {
			b := m.Const(uint64(i))
			m.StoreU32(net, b)
			m.Syscall(isa.SysSendto, isa.RegNone, isa.RegNone,
				[]vmem.Range{{Addr: net, Size: 4}}, nil, nil)
		}
	}
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4096})
	return m
}

func benchDeps(b *testing.B, m *vm.Machine) *cdg.Deps {
	b.Helper()
	f, err := cfg.Build(m.Tr)
	if err != nil {
		b.Fatal(err)
	}
	return cdg.Compute(f)
}

// BenchmarkSliceSingle is the baseline single-criterion walk; watch
// allocs/op to catch per-record allocation regressions.
func BenchmarkSliceSingle(b *testing.B) {
	m := benchWorkload(4096)
	deps := benchDeps(b, m)
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Tr.Recs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Slice(m.Tr, deps, PixelCriteria{}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
