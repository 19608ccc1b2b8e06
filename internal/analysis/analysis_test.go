package analysis

import (
	"testing"

	"webslice/internal/browser/ns"
	"webslice/internal/core"
	"webslice/internal/isa"
	"webslice/internal/slicer"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func TestCategoryMapping(t *testing.T) {
	cases := map[string]string{
		ns.V8:        "JavaScript",
		ns.Debug:     "Debugging",
		ns.IPC:       "IPC",
		ns.Threading: "Multi-threading",
		ns.CC:        "Compositing",
		ns.Skia:      "Graphics",
		ns.CSS:       "CSS",
		ns.Layout:    "CSS",
		ns.Loop:      "Other",
		ns.Net:       "Other",
		"":           "",
		"mystery":    "",
	}
	for in, want := range cases {
		if got := CategoryOf(in); got != want {
			t.Errorf("CategoryOf(%q) = %q, want %q", in, got, want)
		}
	}
	if len(Categories) != 8 {
		t.Errorf("the paper has 8 categories, got %d", len(Categories))
	}
}

// traceWithWaste builds a machine with one useful and two wasted functions
// in different namespaces.
func traceWithWaste(t *testing.T) (*vm.Machine, *slicer.Result) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	tile := m.Tile.Alloc(64)
	useful := m.Func("paint", ns.Skia)
	wasteJS := m.Func("compile", ns.V8)
	wasteNone := m.Func("helper", ns.None)
	m.Call(useful, func() {
		v := m.Const(5)
		m.StoreU32(tile, v)
	})
	m.Call(wasteJS, func() {
		for i := 0; i < 10; i++ {
			m.At("w")
			m.Const(uint64(i))
		}
	})
	m.Call(wasteNone, func() {
		for i := 0; i < 10; i++ {
			m.At("w")
			m.Const(uint64(i))
		}
	})
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4})
	p := core.NewProfiler(m.Tr)
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestCategorize(t *testing.T) {
	m, res := traceWithWaste(t)
	d := Categorize(m.Tr, res)
	if d.UnnecessaryTotal == 0 {
		t.Fatal("no unnecessary instructions found")
	}
	if d.Share["JavaScript"] <= 0 {
		t.Error("JS waste not categorized")
	}
	if d.CoveragePct >= 100 {
		t.Error("namespace-less waste should make coverage < 100%")
	}
	var sum float64
	for _, c := range Categories {
		sum += d.Share[c]
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("category shares must sum to 1, got %v", sum)
	}
}

func TestTopWasted(t *testing.T) {
	m, res := traceWithWaste(t)
	top := TopWasted(m.Tr, res, 2)
	if len(top) != 2 {
		t.Fatalf("want 2 rows, got %d", len(top))
	}
	if top[0].Wasted < top[1].Wasted {
		t.Error("rows must be sorted by waste")
	}
	for _, fw := range top {
		if fw.Name == "paint" && fw.Wasted > 1 {
			t.Error("useful function should not lead the waste list")
		}
	}
}

func TestCPUTimeline(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "other")
	// 100 instructions, idle 100k cycles, 100 more on the other thread.
	for i := 0; i < 100; i++ {
		m.Const(1)
	}
	m.Idle(100_000)
	m.Switch(1)
	for i := 0; i < 100; i++ {
		m.Const(1)
	}
	points := CPUTimeline(m.Tr, 0, 10)
	if len(points) == 0 {
		t.Fatal("no samples")
	}
	if points[0].UtilizationPct <= 0 {
		t.Error("first window should show main-thread activity")
	}
	// Windows in the idle gap must be 0 for thread 0.
	mid := points[len(points)/2]
	if mid.UtilizationPct != 0 {
		t.Errorf("idle window shows %.1f%% utilization", mid.UtilizationPct)
	}
	for _, p := range points {
		if p.UtilizationPct < 0 || p.UtilizationPct > 100 {
			t.Errorf("utilization out of range: %v", p)
		}
	}
}

func TestBackwardCurve(t *testing.T) {
	res := &slicer.Result{
		Progress: []slicer.ProgressPoint{
			{Processed: 1000, Sliced: 500, MainProcessed: 400, MainSliced: 100},
			{Processed: 2000, Sliced: 800, MainProcessed: 900, MainSliced: 450},
		},
	}
	curve := BackwardCurve(res)
	if len(curve) != 2 {
		t.Fatalf("len = %d", len(curve))
	}
	if curve[0].AllPct != 50 || curve[1].AllPct != 40 {
		t.Errorf("all pct wrong: %+v", curve)
	}
	if curve[1].MainPct != 50 {
		t.Errorf("main pct wrong: %+v", curve)
	}
}

func TestByteUsagePercent(t *testing.T) {
	u := ByteUsage{UnusedBytes: 58, TotalBytes: 100}
	if u.Percent() != 58 {
		t.Errorf("Percent = %v", u.Percent())
	}
	if (ByteUsage{}).Percent() != 0 {
		t.Error("empty usage should be 0%")
	}
}

var _ = isa.KindNop
