package replay

import (
	"strings"
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

// record builds a workload exercising every record kind with a tape
// attached: input syscalls feeding a render loop and a wide copy, dead
// bookkeeping, cross-thread beacon, pixel marker, output syscall.
func record() (*vm.Machine, *vm.Tape) {
	m := vm.New()
	tape := m.Capture()
	m.Thread(0, "main")
	m.Thread(1, "worker")
	tile := m.Tile.Alloc(64)
	net := m.IOb.Alloc(32)
	inbuf := m.IOb.Alloc(64)
	font := m.Heap.Alloc(16)

	m.Syscall(isa.SysRecvfrom, isa.RegNone, isa.RegNone, nil,
		[]vmem.Range{{Addr: font, Size: 16}}, []byte("glyph-table-data"))
	m.Syscall(isa.SysRecvfrom, isa.RegNone, isa.RegNone, nil,
		[]vmem.Range{{Addr: inbuf, Size: 8}}, []byte("RESPONSE"))

	render := m.Func("render", "gfx")
	m.Call(render, func() {
		seed := m.LoadU32(inbuf)
		m.Loop("rows", 8, func(i int) {
			v := m.AddImm(seed, uint64(i))
			m.StoreU32(tile+vmem.Addr(4*(i%16)), v)
		})
		// Wide vector copy from input memory into the tile tail.
		m.Copy(tile+32, font, 16)
	})
	debuglog.New(m, 12).Histogram(0)

	m.Switch(1)
	b := m.Const(7)
	m.StoreU32(net, b)
	m.Syscall(isa.SysSendto, isa.RegNone, isa.RegNone,
		[]vmem.Range{{Addr: net, Size: 4}}, nil, nil)
	m.Switch(0)

	m.MarkPixels(vmem.Range{Addr: tile, Size: 48})
	m.Syscall(isa.SysIoctl, isa.RegNone, isa.RegNone,
		[]vmem.Range{{Addr: tile, Size: 48}}, nil, nil)
	m.SealTape()
	return m, tape
}

func sliceAll(t *testing.T, m *vm.Machine) (deps *cdg.Deps, pix, sys, uni *slicer.Result) {
	t.Helper()
	deps = forward(t, m.Tr)
	one := func(c slicer.Criteria) *slicer.Result {
		res, err := slicer.Slice(m.Tr, deps, c, slicer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return deps, one(slicer.PixelCriteria{}), one(slicer.SyscallCriteria{}),
		one(slicer.Union{slicer.PixelCriteria{}, slicer.SyscallCriteria{}})
}

func TestReplayReproducesCriterionBytes(t *testing.T) {
	m, tape := record()
	_, pix, sys, uni := sliceAll(t, m)
	if d := Replay(m.Tr, tape, pix, Config{CheckPixels: true}); d != nil {
		t.Errorf("pixel slice replay diverged: %v", d)
	}
	if d := Replay(m.Tr, tape, sys, Config{CheckSyscalls: true}); d != nil {
		t.Errorf("syscall slice replay diverged: %v", d)
	}
	if d := Replay(m.Tr, tape, uni, Config{CheckPixels: true, CheckSyscalls: true}); d != nil {
		t.Errorf("union slice replay diverged: %v", d)
	}
}

func TestReplayWitnessesAMissingStore(t *testing.T) {
	m, tape := record()
	_, pix, _, _ := sliceAll(t, m)
	// Remove an in-slice store that writes the marked tile: the replayed
	// pixel bytes can no longer reproduce, and the witness must name a
	// concrete record.
	victim := -1
	for i := range m.Tr.Recs {
		r := &m.Tr.Recs[i]
		if r.Kind == isa.KindStore && pix.InSlice.Get(i) && r.Addr >= vmem.TileBase {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no in-slice tile store found")
	}
	pix.InSlice[victim>>6] &^= 1 << (uint(victim) & 63)
	d := Replay(m.Tr, tape, pix, Config{CheckPixels: true})
	if d == nil {
		t.Fatal("replay accepted a slice with a pixel-writing store removed")
	}
	if d.Index < victim {
		t.Errorf("divergence at record %d precedes the removed store %d", d.Index, victim)
	}
}

func TestReplayWitnessesAMissingBranchInput(t *testing.T) {
	m, tape := record()
	_, _, sys, _ := sliceAll(t, m)
	// Remove an in-slice branch: a replayed control decision now reads an
	// undefined condition or the structural check trips downstream.
	victim := -1
	for i := range m.Tr.Recs {
		if m.Tr.Recs[i].Kind == isa.KindConst && sys.InSlice.Get(i) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no in-slice const found")
	}
	sys.InSlice[victim>>6] &^= 1 << (uint(victim) & 63)
	if d := Replay(m.Tr, tape, sys, Config{CheckSyscalls: true}); d == nil {
		t.Error("replay accepted a slice with a value-defining const removed")
	}
}

func TestInvariantsHoldOnRealSlices(t *testing.T) {
	m, _ := record()
	deps, pix, sys, uni := sliceAll(t, m)
	for _, res := range []*slicer.Result{pix, sys, uni} {
		if err := CheckInvariants(m.Tr, deps, res); err != nil {
			t.Errorf("%s: %v", res.Criteria, err)
		}
	}
	if err := CheckMonotonic(uni, pix, sys); err != nil {
		t.Error(err)
	}
}

func TestInvariantsCatchPerturbations(t *testing.T) {
	m, _ := record()
	deps, pix, sys, uni := sliceAll(t, m)

	// Count drift.
	pix.SliceCount++
	if err := CheckInvariants(m.Tr, deps, pix); err == nil {
		t.Error("subset check accepted a drifted SliceCount")
	}
	pix.SliceCount--

	// Dropping a controlling branch breaks closure.
	victim := -1
	for i := range m.Tr.Recs {
		if m.Tr.Recs[i].Kind == isa.KindBranch && pix.InSlice.Get(i) {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no in-slice branch found")
	}
	pix.InSlice[victim>>6] &^= 1 << (uint(victim) & 63)
	pix.SliceCount--
	if err := CheckInvariants(m.Tr, deps, pix); err == nil {
		t.Error("closure check accepted a slice with a controlling branch removed")
	} else if !strings.Contains(err.Error(), "branch") {
		t.Errorf("unexpected violation: %v", err)
	}

	// Union monotonicity: remove a record from the union that a component
	// still holds.
	victim = -1
	for i := 0; i < uni.Total; i++ {
		if sys.InSlice.Get(i) && uni.InSlice.Get(i) {
			victim = i
			break
		}
	}
	uni.InSlice[victim>>6] &^= 1 << (uint(victim) & 63)
	if err := CheckMonotonic(uni, &slicer.Result{Total: uni.Total, InSlice: slicer.NewBitset(uni.Total), Criteria: "pixels"}, sys); err == nil {
		t.Error("monotonicity check accepted a union missing a component record")
	}
}

// TestInvariantsOverEmptyGraph: a data-only slice, the slice over an empty
// control dependence graph, is checked under that graph. It passes, the call
// closure still catches a dropped call record, and a nil graph is an error
// rather than a skipped check.
func TestInvariantsOverEmptyGraph(t *testing.T) {
	m, _ := record()
	empty := &cdg.Deps{}
	res, err := slicer.Slice(m.Tr, empty, slicer.SyscallCriteria{}, slicer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(m.Tr, empty, res); err != nil {
		t.Fatalf("data-only slice under the empty graph: %v", err)
	}
	if err := CheckInvariants(m.Tr, nil, res); err == nil || !strings.Contains(err.Error(), "empty cdg.Deps") {
		t.Errorf("nil graph: err = %v, want one naming the empty cdg.Deps", err)
	}
	victim := -1
	for i := range m.Tr.Recs {
		if m.Tr.Recs[i].Kind == isa.KindCall && res.InSlice.Get(i) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no in-slice call found")
	}
	res.InSlice[victim>>6] &^= 1 << (uint(victim) & 63)
	res.SliceCount--
	if err := CheckInvariants(m.Tr, empty, res); err == nil || !strings.Contains(err.Error(), "enclosing call") {
		t.Errorf("call closure under the empty graph: err = %v, want an enclosing-call violation", err)
	}
}
