package analysis

import (
	"reflect"
	"testing"

	"webslice/internal/browser"
	"webslice/internal/browser/ns"
	"webslice/internal/core"
	"webslice/internal/isa"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/trace"
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

// TestBackwardCurve: on a hand-built trace of two threads whose in-slice
// records are known, every sample counts the records walked back from the
// trace end, the final partial step included.
func TestBackwardCurve(t *testing.T) {
	tids := []uint8{0, 1, 0, 0, 1, 1, 0, 1, 0, 0}
	tr := &trace.Trace{}
	for _, tid := range tids {
		tr.Recs = append(tr.Recs, trace.Rec{Kind: isa.KindNop, TID: tid})
	}
	res := &slicer.Result{InSlice: slicer.NewBitset(len(tids))}
	for _, i := range []int{1, 2, 5, 8, 9} {
		res.InSlice.Set(i)
	}
	// Every 10/3 = 3 records, then the beginning of the trace.
	want := []CurvePoint{
		{Processed: 3, Sliced: 2, MainProcessed: 2, MainSliced: 2},
		{Processed: 6, Sliced: 3, MainProcessed: 3, MainSliced: 2},
		{Processed: 9, Sliced: 5, MainProcessed: 5, MainSliced: 3},
		{Processed: 10, Sliced: 5, MainProcessed: 6, MainSliced: 3},
	}
	curve := BackwardCurve(tr, res, 3)
	if !reflect.DeepEqual(curve, want) {
		t.Fatalf("BackwardCurve = %+v, want %+v", curve, want)
	}
	if p := curve[2]; p.AllPct() != 100*5.0/9 || p.MainPct() != 60 || p.XMInstr() != 9e-6 {
		t.Errorf("sample %+v: AllPct %v, MainPct %v, XMInstr %v", p, p.AllPct(), p.MainPct(), p.XMInstr())
	}
	// More points than records: one sample a record, none repeated.
	if dense := BackwardCurve(tr, res, 160); len(dense) != len(tids) || dense[len(dense)-1] != want[3] {
		t.Errorf("160 points over %d records = %+v", len(tids), dense)
	}
	// An empty trace still has its one sample, at x = 0.
	empty := BackwardCurve(&trace.Trace{}, &slicer.Result{}, 160)
	if len(empty) != 1 || empty[0] != (CurvePoint{}) || empty[0].AllPct() != 0 || empty[0].MainPct() != 0 {
		t.Errorf("empty trace = %+v, want one zero sample", empty)
	}
}

// TestBackwardCurveMatchesSlice: over real slices of a few property sites,
// under both criteria, the curve only grows and its last sample is the
// whole slice: the result's Total and SliceCount, and the main thread's
// ByThread and SliceByThread.
func TestBackwardCurveMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		b := sites.Random(seed)
		br := browser.New(b.Site, b.Profile)
		br.RunSession()
		if len(br.Errors) > 0 {
			t.Fatalf("%s: %v", b.Name, br.Errors[0])
		}
		p := core.NewProfiler(br.M.Tr)
		for _, c := range []slicer.Criteria{slicer.PixelCriteria{}, slicer.SyscallCriteria{}} {
			res, err := p.Slice(c)
			if err != nil {
				t.Fatal(err)
			}
			curve := BackwardCurve(br.M.Tr, res, 160)
			var last CurvePoint
			for k, cp := range curve {
				if cp.Processed <= last.Processed || cp.Sliced < last.Sliced ||
					cp.MainProcessed < last.MainProcessed || cp.MainSliced < last.MainSliced {
					t.Fatalf("%s %s: sample %d %+v after %+v is not monotone", b.Name, c.Name(), k, cp, last)
				}
				if cp.Sliced > cp.Processed || cp.MainSliced > cp.MainProcessed || cp.MainProcessed > cp.Processed {
					t.Fatalf("%s %s: sample %d %+v counts more than it walked", b.Name, c.Name(), k, cp)
				}
				last = cp
			}
			whole := CurvePoint{
				Processed: res.Total, Sliced: res.SliceCount,
				MainProcessed: res.ByThread[browser.MainThread], MainSliced: res.SliceByThread[browser.MainThread],
			}
			if last != whole {
				t.Errorf("%s %s: last sample %+v, whole slice %+v", b.Name, c.Name(), last, whole)
			}
		}
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
