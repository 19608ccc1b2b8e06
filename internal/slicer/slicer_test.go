package slicer

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/isa"
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

func pixelSlice(t *testing.T, m *vm.Machine, opts Options) *Result {
	t.Helper()
	res, err := Slice(m.Tr, forward(t, m.Tr), PixelCriteria{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeadStoreExcluded: a value stored to memory that never reaches the
// marked buffer must not be in the slice; the chain that does reach it must.
func TestDeadChainExcludedLiveChainIncluded(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	buf := m.Tile.Alloc(64)
	junk := m.Heap.Alloc(64)

	liveIdx := []int{}
	deadIdx := []int{}
	rec := func() int { return len(m.Tr.Recs) - 1 }

	a := m.Const(10)
	liveIdx = append(liveIdx, rec())
	b := m.Const(32)
	liveIdx = append(liveIdx, rec())
	sum := m.Op(isa.OpAdd, a, b)
	liveIdx = append(liveIdx, rec())
	m.StoreU32(buf, sum)
	liveIdx = append(liveIdx, rec())

	x := m.Const(99)
	deadIdx = append(deadIdx, rec())
	y := m.OpImm(isa.OpMul, x, 3)
	deadIdx = append(deadIdx, rec())
	m.StoreU32(junk, y)
	deadIdx = append(deadIdx, rec())

	m.MarkPixels(vmem.Range{Addr: buf, Size: 64})

	res := pixelSlice(t, m, Options{})
	for _, i := range liveIdx {
		if !res.InSlice.Get(i) {
			t.Errorf("record %d (%v) should be in the slice", i, m.Tr.Recs[i].Kind)
		}
	}
	for _, i := range deadIdx {
		if res.InSlice.Get(i) {
			t.Errorf("record %d (%v) should NOT be in the slice", i, m.Tr.Recs[i].Kind)
		}
	}
	if res.Percent() >= 100 || res.Percent() <= 0 {
		t.Errorf("percent = %v", res.Percent())
	}
}

// TestOverwriteKillsLiveness: an overwritten store must not be in the slice;
// only the last writer of the marked bytes counts.
func TestOverwriteKillsLiveness(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	buf := m.Tile.Alloc(8)
	first := m.Const(1)
	m.StoreU32(buf, first)
	firstStore := len(m.Tr.Recs) - 1
	second := m.Const(2)
	m.StoreU32(buf, second)
	secondStore := len(m.Tr.Recs) - 1
	m.MarkPixels(vmem.Range{Addr: buf, Size: 4})

	res := pixelSlice(t, m, Options{})
	if res.InSlice.Get(firstStore) {
		t.Error("overwritten store must be excluded")
	}
	if !res.InSlice.Get(secondStore) {
		t.Error("final store must be included")
	}
}

// TestControlDependenceBranchIncluded: the branch guarding an in-slice store
// joins the slice, and so does its condition's producer.
func TestControlDependence(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	fn := m.Func("f", "test")
	buf := m.Tile.Alloc(8)
	var branchIdx, condIdx, guardedIdx int
	run := func(v uint64, mark bool) {
		m.Call(fn, func() {
			m.At("head")
			c := m.Const(v)
			condIdx = len(m.Tr.Recs) - 1
			bi := len(m.Tr.Recs)
			if m.Branch(c) {
				branchIdx = bi
				m.At("then")
				val := m.Const(7)
				m.StoreU32(buf, val)
				guardedIdx = len(m.Tr.Recs) - 1
			} else {
				m.At("else")
				m.Const(0)
			}
			m.At("join")
		})
		if mark {
			m.MarkPixels(vmem.Range{Addr: buf, Size: 4})
		}
	}
	run(0, false) // cold path so the CFG has both arms
	run(1, true)

	res := pixelSlice(t, m, Options{})
	if !res.InSlice.Get(guardedIdx) {
		t.Fatal("guarded store should be in slice")
	}
	if !res.InSlice.Get(branchIdx) {
		t.Error("guarding branch should be in slice (pending-branch mechanism)")
	}
	if !res.InSlice.Get(condIdx) {
		t.Error("branch condition producer should be in slice")
	}

	// Ablation: over an empty control dependence graph, the data-only
	// slice, the branch drops out.
	res2, err := Slice(m.Tr, &cdg.Deps{}, PixelCriteria{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.InSlice.Get(branchIdx) {
		t.Error("the data-only slice should exclude the branch")
	}
	if res2.SliceCount > res.SliceCount {
		t.Error("data-only slice cannot be larger than the full slice")
	}
}

// TestUntakenBranchExcluded: a branch whose guarded code never contributes
// stays out of the slice.
func TestUntakenBranchExcluded(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	fn := m.Func("f", "test")
	buf := m.Tile.Alloc(8)
	var coldBranch int
	m.Call(fn, func() {
		m.At("head")
		// This branch guards only junk.
		c := m.Const(1)
		coldBranch = len(m.Tr.Recs)
		junk := m.Heap.Alloc(8)
		if m.Branch(c) {
			m.At("junk")
			v := m.Const(5)
			m.StoreU32(junk, v)
		}
		m.At("real")
		v := m.Const(6)
		m.StoreU32(buf, v)
	})
	m.MarkPixels(vmem.Range{Addr: buf, Size: 4})
	res := pixelSlice(t, m, Options{})
	if res.InSlice.Get(coldBranch) {
		t.Error("branch guarding only dead code must be excluded")
	}
}

// TestInterproceduralCall: a call whose callee contributes joins the slice;
// a call whose callee is pure waste does not.
func TestInterproceduralCall(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	useful := m.Func("useful", "test")
	waste := m.Func("waste", "test")
	buf := m.Tile.Alloc(8)
	junk := m.Heap.Alloc(8)

	usefulCall := len(m.Tr.Recs)
	m.Call(useful, func() {
		v := m.Const(1)
		m.StoreU32(buf, v)
	})
	wasteCall := len(m.Tr.Recs)
	m.Call(waste, func() {
		v := m.Const(2)
		m.StoreU32(junk, v)
	})
	m.MarkPixels(vmem.Range{Addr: buf, Size: 4})

	res := pixelSlice(t, m, Options{})
	if !res.InSlice.Get(usefulCall) {
		t.Error("call to contributing function should be in slice")
	}
	if res.InSlice.Get(wasteCall) {
		t.Error("call to wasted function should be excluded")
	}
}

// TestCrossThreadDataflow: main thread writes a display item, raster thread
// reads it and writes marked pixels — main's work must land in the slice
// through the shared live-memory set.
func TestCrossThreadDataflow(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "raster")
	item := m.Heap.Alloc(8)
	tile := m.Tile.Alloc(8)

	m.Switch(0)
	color := m.Const(0xFF00FF)
	colorIdx := len(m.Tr.Recs) - 1
	m.StoreU32(item, color)

	m.Switch(1)
	v := m.LoadU32(item)
	m.StoreU32(tile, v)
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4})

	res := pixelSlice(t, m, Options{})
	if !res.InSlice.Get(colorIdx) {
		t.Error("main-thread producer should be in slice via shared memory")
	}
	if res.SliceByThread[0] == 0 || res.SliceByThread[1] == 0 {
		t.Errorf("both threads should contribute: %+v", res.SliceByThread)
	}
}

// TestSyscallAsDefinition: recvfrom writes a buffer whose value flows to the
// pixels — the syscall joins the pixel slice as the definition site.
func TestSyscallAsDefinition(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	buf := m.IOb.Alloc(8)
	tile := m.Tile.Alloc(8)
	sysIdx := len(m.Tr.Recs)
	m.Syscall(isa.SysRecvfrom, isa.RegNone, isa.RegNone, nil,
		[]vmem.Range{{Addr: buf, Size: 8}}, []byte("RESPONSE"))
	v := m.LoadU32(buf)
	m.StoreU32(tile, v)
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4})

	res := pixelSlice(t, m, Options{})
	if !res.InSlice.Get(sysIdx) {
		t.Error("input syscall defining consumed bytes should be in slice")
	}
}

// TestSyscallCriteriaSuperset: on a workload whose pixels flow out through
// an output syscall, the syscall slice contains the pixel slice.
func TestSyscallCriteriaSuperset(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	tile := m.Tile.Alloc(8)
	net := m.IOb.Alloc(8)

	v := m.Const(42)
	m.StoreU32(tile, v)
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4})
	// The frame is also handed to the display via an output syscall.
	m.Syscall(isa.SysIoctl, isa.RegNone, isa.RegNone,
		[]vmem.Range{{Addr: tile, Size: 4}}, nil, nil)
	// Plus an unrelated network send (beacon): only in the syscall slice.
	b := m.Const(7)
	beaconStore := len(m.Tr.Recs)
	m.StoreU32(net, b)
	m.Syscall(isa.SysSendto, isa.RegNone, isa.RegNone,
		[]vmem.Range{{Addr: net, Size: 4}}, nil, nil)

	deps := forward(t, m.Tr)
	pix, err := Slice(m.Tr, deps, PixelCriteria{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Slice(m.Tr, deps, SyscallCriteria{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pix.Total; i++ {
		if pix.InSlice.Get(i) && !sys.InSlice.Get(i) && m.Tr.Recs[i].Kind != isa.KindMarker {
			t.Errorf("record %d in pixel slice but not syscall slice", i)
		}
	}
	if !sys.InSlice.Get(beaconStore) {
		t.Error("beacon store should be in syscall slice")
	}
	if pix.InSlice.Get(beaconStore) {
		t.Error("beacon store should not be in pixel slice")
	}
	if sys.SliceCount <= pix.SliceCount {
		t.Error("syscall slice should be strictly larger here")
	}
}

// TestWindowCriteria: limiting criteria to a prefix reproduces the paper's
// partial-slice experiment (§V-A, Bing load-only slicing).
func TestWindowCriteria(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	tileA := m.Tile.Alloc(8)
	tileB := m.Tile.Alloc(8)
	va := m.Const(1)
	aStore := len(m.Tr.Recs)
	m.StoreU32(tileA, va)
	m.MarkPixels(vmem.Range{Addr: tileA, Size: 4})
	cut := len(m.Tr.Recs) // everything below is "after load"
	vb := m.Const(2)
	bStore := len(m.Tr.Recs)
	m.StoreU32(tileB, vb)
	m.MarkPixels(vmem.Range{Addr: tileB, Size: 4})

	deps := forward(t, m.Tr)
	res, err := Slice(m.Tr, deps, Window{Inner: PixelCriteria{}, Limit: cut}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InSlice.Get(aStore) {
		t.Error("pre-window store should be sliced")
	}
	if res.InSlice.Get(bStore) {
		t.Error("post-window store must be ignored by windowed criteria")
	}
	if got := res.RangePercent(0, cut); got <= 0 {
		t.Errorf("RangePercent = %v", got)
	}
}

// TestUnionCriteria combines pixel and syscall criteria.
func TestUnionCriteria(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	tile := m.Tile.Alloc(8)
	net := m.IOb.Alloc(8)
	v := m.Const(1)
	m.StoreU32(tile, v)
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4})
	b := m.Const(2)
	m.StoreU32(net, b)
	m.Syscall(isa.SysSendto, isa.RegNone, isa.RegNone, []vmem.Range{{Addr: net, Size: 4}}, nil, nil)

	u := Union{PixelCriteria{}, SyscallCriteria{}}
	if u.Name() != "union(pixels+syscalls)" {
		t.Errorf("Name = %q", u.Name())
	}
	res, err := Slice(m.Tr, forward(t, m.Tr), u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pix, _ := Slice(m.Tr, forward(t, m.Tr), PixelCriteria{}, Options{})
	sys, _ := Slice(m.Tr, forward(t, m.Tr), SyscallCriteria{}, Options{})
	if res.SliceCount < pix.SliceCount || res.SliceCount < sys.SliceCount {
		t.Error("union slice must contain both member slices")
	}
}

// TestSliceClosure verifies, forward, that the slice is closed under data
// dependences: every register source of an in-slice record is defined by an
// in-slice record, and the last writer of every byte read by an in-slice
// load is in the slice.
func TestSliceClosure(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "helper")
	tile := m.Tile.Alloc(128)
	stage := m.Heap.Alloc(64)
	// A small pipeline with branches and cross-thread flow.
	fn := m.Func("producer", "test")
	m.Switch(0)
	m.Call(fn, func() {
		for i := 0; i < 8; i++ {
			m.At("loop")
			v := m.Const(uint64(i * 17))
			c := m.OpImm(isa.OpAnd, v, 1)
			if m.Branch(c) {
				m.At("odd")
				m.StoreU32(stage+vmem.Addr(4*i), v)
			} else {
				m.At("even")
				d := m.OpImm(isa.OpMul, v, 2)
				m.StoreU32(stage+vmem.Addr(4*i), d)
			}
		}
	})
	m.Switch(1)
	for i := 0; i < 8; i++ {
		v := m.LoadU32(stage + vmem.Addr(4*i))
		m.StoreU32(tile+vmem.Addr(4*i), v)
	}
	m.MarkPixels(vmem.Range{Addr: tile, Size: 32})

	res := pixelSlice(t, m, Options{})
	verifyClosure(t, m.Tr, res)
	if res.SliceCount == 0 {
		t.Fatal("slice should not be empty")
	}
}

func verifyClosure(t *testing.T, tr *trace.Trace, res *Result) {
	t.Helper()
	defOf := map[isa.Reg]int{}
	lastWriter := map[vmem.Addr]int{} // per byte
	checkReg := func(i int, r isa.Reg) {
		if r == isa.RegNone {
			return
		}
		d, ok := defOf[r]
		if !ok {
			return // defined before trace start (not possible here)
		}
		if !res.InSlice.Get(d) {
			t.Errorf("rec %d in slice uses reg %d defined at %d which is NOT in slice", i, r, d)
		}
	}
	for i := range tr.Recs {
		r := &tr.Recs[i]
		if !res.InSlice.Get(i) {
			// still record definitions
		} else {
			switch r.Kind {
			case isa.KindOp:
				checkReg(i, r.Src1)
				checkReg(i, r.Src2)
			case isa.KindLoad:
				for b := uint32(0); b < uint32(r.Size); b++ {
					if w, ok := lastWriter[r.Addr+vmem.Addr(b)]; ok && !res.InSlice.Get(w) {
						t.Errorf("rec %d (load) reads byte %#x last written by non-slice rec %d", i, uint32(r.Addr)+b, w)
					}
				}
				checkReg(i, r.Src2)
			case isa.KindStore:
				checkReg(i, r.Src1)
				checkReg(i, r.Src2)
			case isa.KindBranch:
				checkReg(i, r.Src1)
			}
		}
		if r.Dst != isa.RegNone {
			defOf[r.Dst] = i
		}
		if r.Kind == isa.KindStore {
			for b := uint32(0); b < uint32(r.Size); b++ {
				lastWriter[r.Addr+vmem.Addr(b)] = i
			}
		}
	}
}

// TestSliceClosureProperty fuzzes small random traced programs and checks
// closure on each.
func TestSliceClosureProperty(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		m := vm.New()
		m.Thread(0, "main")
		tile := m.Tile.Alloc(64)
		heap := m.Heap.Alloc(64)
		var regs []isa.Reg
		reg := func(i int) isa.Reg {
			if len(regs) == 0 {
				r := m.Const(1)
				regs = append(regs, r)
			}
			return regs[i%len(regs)]
		}
		for i, b := range seed {
			switch b % 6 {
			case 0:
				regs = append(regs, m.Const(uint64(b)))
			case 1:
				regs = append(regs, m.Op(isa.OpAdd, reg(i), reg(i+1)))
			case 2:
				m.StoreU32(tile+vmem.Addr((int(b)*4)%60), reg(i))
			case 3:
				m.StoreU32(heap+vmem.Addr((int(b)*4)%60), reg(i))
			case 4:
				regs = append(regs, m.LoadU32(heap+vmem.Addr((int(b)*4)%60)))
			case 5:
				regs = append(regs, m.LoadU32(tile+vmem.Addr((int(b)*4)%60)))
			}
		}
		m.MarkPixels(vmem.Range{Addr: tile, Size: 64})
		deps := forward(t, m.Tr)
		res, err := Slice(m.Tr, deps, PixelCriteria{}, Options{})
		if err != nil {
			return false
		}
		verifyClosure(t, m.Tr, res)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSliceErrors(t *testing.T) {
	tr := trace.New()
	if _, err := Slice(tr, nil, nil, Options{}); err == nil {
		t.Error("nil criteria should error")
	}
	// Nil deps is an error whose message names the data-only form.
	if _, err := Slice(tr, nil, PixelCriteria{}, Options{}); err == nil || !strings.Contains(err.Error(), "empty cdg.Deps gives the data-only slice") {
		t.Errorf("nil deps: err = %v, want one naming the empty cdg.Deps", err)
	}
	if _, err := Slice(tr, &cdg.Deps{}, PixelCriteria{}, Options{}); err != nil {
		t.Errorf("empty trace should slice fine: %v", err)
	}
}

// TestSliceScratchPooled is the allocation-count regression gate on the
// pooled scratch path: once the pools are warm, a backward pass must not
// re-allocate its big per-pass scratch (live-register words, live-memory
// buckets, frame stacks) — only the Result itself and its tallies.
func TestSliceScratchPooled(t *testing.T) {
	m := benchWorkload(256)
	deps := forward(t, m.Tr)
	opts := Options{}
	run := func() {
		if _, err := Slice(m.Tr, deps, PixelCriteria{}, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm the pools
	}
	// An unpooled pass allocates the register bitset, the live-memory map,
	// and a frame stack per thread on every run — several hundred
	// allocations on this workload before pooling. The budget leaves room
	// for the Result, its maps, and pool-miss noise, while failing loudly
	// if the scratch stops being reused.
	const budget = 120
	if got := testing.AllocsPerRun(20, run); got > budget {
		t.Errorf("backward pass allocates %.0f objects/run, budget %d — pooled scratch regressed", got, budget)
	}
}

// TestStreamRegisterBombBounded: a two-record trace whose operands name a
// register near 2^32 must slice correctly without the live-register set
// growing toward that ID. Real traces never name a register above their
// record count; a hostile upload costs memory bounded by its records.
func TestStreamRegisterBombBounded(t *testing.T) {
	const bomb = isa.Reg(0xFFFFFFF0)
	tr := trace.New()
	fn, err := tr.AddFunc("f", "net")
	if err != nil {
		t.Fatal(err)
	}
	tr.Threads = append(tr.Threads, trace.ThreadInfo{ID: 0, Name: "main"})
	tr.Recs = []trace.Rec{
		{PC: trace.MakePC(fn, 0), Kind: isa.KindConst, Dst: bomb},
		{PC: trace.MakePC(fn, 1), Kind: isa.KindSyscall, Src1: bomb},
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := Slice(tr, &cdg.Deps{}, SyscallCriteria{}, Options{})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InSlice.Get(0) || !res.InSlice.Get(1) || res.SliceCount != 2 {
		t.Fatalf("slice = %d records (bits %b), want both the const and the syscall", res.SliceCount, res.InSlice)
	}
	if delta := m1.TotalAlloc - m0.TotalAlloc; delta > 1<<20 {
		t.Fatalf("slicing a two-record trace allocated %d bytes, want under 1 MiB", delta)
	}
}
