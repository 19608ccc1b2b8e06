package vm

import (
	"runtime"
	"slices"
	"testing"

	"webslice/internal/isa"
	"webslice/internal/trace"
	"webslice/internal/vmem"
)

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m := New()
	m.Thread(0, "main")
	return m
}

func TestConstOpStoreLoad(t *testing.T) {
	m := newTestMachine(t)
	a := m.Const(40)
	b := m.Const(2)
	sum := m.Op(isa.OpAdd, a, b)
	if m.Val(sum) != 42 {
		t.Fatalf("Val(sum) = %d", m.Val(sum))
	}
	addr := m.Heap.Alloc(8)
	m.StoreU64(addr, sum)
	back := m.LoadU64(addr)
	if m.Val(back) != 42 {
		t.Fatalf("loaded %d, want 42", m.Val(back))
	}
	// Trace shape: const, const, op, store, load.
	kinds := []isa.Kind{isa.KindConst, isa.KindConst, isa.KindOp, isa.KindStore, isa.KindLoad}
	if len(m.Tr.Recs) != len(kinds) {
		t.Fatalf("trace length %d, want %d", len(m.Tr.Recs), len(kinds))
	}
	for i, k := range kinds {
		if m.Tr.Recs[i].Kind != k {
			t.Errorf("rec %d kind %v, want %v", i, m.Tr.Recs[i].Kind, k)
		}
	}
	if err := m.Tr.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

func TestStablePCsAcrossInvocations(t *testing.T) {
	m := newTestMachine(t)
	fn := m.Func("work", "test")
	var pcs [2][]uint32
	for round := 0; round < 2; round++ {
		start := len(m.Tr.Recs)
		m.Call(fn, func() {
			m.At("body")
			x := m.Const(1)
			y := m.AddImm(x, 2)
			_ = y
		})
		for _, r := range m.Tr.Recs[start:] {
			pcs[round] = append(pcs[round], r.PC)
		}
	}
	if len(pcs[0]) != len(pcs[1]) {
		// Imm caching makes round 2 shorter (constant already materialized);
		// compare only the common structure: same PC must appear.
		t.Logf("round lengths differ (%d vs %d) due to Imm cache; checking site reuse", len(pcs[0]), len(pcs[1]))
	}
	// The first record of each call body (the Const at label "body") must
	// share a PC across invocations.
	if pcs[0][1] != pcs[1][1] {
		t.Errorf("body-entry PCs differ across invocations: %#x vs %#x", pcs[0][1], pcs[1][1])
	}
}

func TestBranchFollowsCondition(t *testing.T) {
	m := newTestMachine(t)
	hot := m.Const(1)
	cold := m.Const(0)
	if !m.Branch(hot) {
		t.Error("Branch(1) should be taken")
	}
	if m.Branch(cold) {
		t.Error("Branch(0) should not be taken")
	}
	recs := m.Tr.Recs
	if recs[2].Aux != 1 || recs[3].Aux != 0 {
		t.Errorf("taken flags wrong: %d, %d", recs[2].Aux, recs[3].Aux)
	}
}

func TestCallRetNesting(t *testing.T) {
	m := newTestMachine(t)
	outer := m.Func("outer", "test")
	inner := m.Func("inner", "test")
	m.Call(outer, func() {
		m.Const(1)
		m.Call(inner, func() {
			m.Const(2)
		})
		m.Const(3)
	})
	var kinds []isa.Kind
	var fns []trace.FuncID
	for i := range m.Tr.Recs {
		kinds = append(kinds, m.Tr.Recs[i].Kind)
		fns = append(fns, m.Tr.Recs[i].Func())
	}
	want := []isa.Kind{isa.KindCall, isa.KindConst, isa.KindCall, isa.KindConst, isa.KindRet, isa.KindConst, isa.KindRet}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	// The call to inner is attributed to outer's frame; inner's const to inner.
	if fns[2] != outer.ID || fns[3] != inner.ID || fns[5] != outer.ID {
		t.Errorf("frame attribution wrong: %v", fns)
	}
}

func TestCrossThreadRegisterPanics(t *testing.T) {
	m := New()
	m.Thread(0, "a")
	m.Thread(1, "b")
	r := m.Const(7)
	m.Switch(1)
	defer func() {
		if recover() == nil {
			t.Error("expected cross-thread register panic")
		}
	}()
	m.Op(isa.OpAdd, r, r)
}

func TestCrossThreadThroughMemoryOK(t *testing.T) {
	m := New()
	m.Thread(0, "a")
	m.Thread(1, "b")
	addr := m.Heap.Alloc(8)
	v := m.Const(99)
	m.StoreU64(addr, v)
	m.Switch(1)
	got := m.LoadU64(addr)
	if m.Val(got) != 99 {
		t.Errorf("cross-thread memory value = %d, want 99", m.Val(got))
	}
	if m.Tr.Recs[0].TID != 0 || m.Tr.Recs[2].TID != 1 {
		t.Error("TID attribution wrong")
	}
}

func TestSyscallFillAndSideTable(t *testing.T) {
	m := newTestMachine(t)
	buf := m.IOb.Alloc(16)
	payload := []byte("HTTP/1.1 200 OK!")
	ret := m.Syscall(isa.SysRecvfrom, isa.RegNone, isa.RegNone,
		nil, []vmem.Range{{Addr: buf, Size: 16}}, payload)
	if m.Val(ret) != 16 {
		t.Errorf("syscall return = %d, want 16", m.Val(ret))
	}
	if got := m.Mem.ReadBytes(buf, 16); string(got) != string(payload) {
		t.Errorf("kernel fill = %q", got)
	}
	eff := m.Tr.Sys[len(m.Tr.Recs)-1]
	if eff == nil || eff.Num != isa.SysRecvfrom || len(eff.Writes) != 1 {
		t.Errorf("side table entry wrong: %+v", eff)
	}
}

func TestMarkPixels(t *testing.T) {
	m := newTestMachine(t)
	tile := m.Tile.Alloc(256)
	m.MarkPixels(vmem.Range{Addr: tile, Size: 256})
	mk := m.Tr.Marks[len(m.Tr.Recs)-1]
	if mk == nil || mk.Kind != isa.MarkPixels || mk.Buf.Size != 256 {
		t.Fatalf("marker entry wrong: %+v", mk)
	}
	if err := m.Tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestIdleAdvancesClock(t *testing.T) {
	m := newTestMachine(t)
	m.Const(1)
	m.Idle(1000)
	m.Const(2)
	if m.Cycle() != 1002 {
		t.Errorf("cycle = %d, want 1002", m.Cycle())
	}
	if got := m.Tr.CycleAt(1); got != 1001 {
		t.Errorf("CycleAt(1) = %d, want 1001", got)
	}
}

func TestCopyFillWriteData(t *testing.T) {
	m := newTestMachine(t)
	src := m.Heap.Alloc(100)
	dst := m.Heap.Alloc(100)
	content := make([]byte, 100)
	for i := range content {
		content[i] = byte(i)
	}
	m.Mem.WriteBytes(src, content)
	m.Copy(dst, src, 100)
	if got := m.Mem.ReadBytes(dst, 100); string(got) != string(content) {
		t.Error("Copy did not reproduce contents")
	}
	z := m.Heap.Alloc(32)
	m.Fill(z, 32, m.Const(0xAB))
	for _, b := range m.Mem.ReadBytes(z, 32) {
		if b != 0xAB {
			t.Fatalf("Fill wrote %#x", b)
		}
	}
	w := m.Heap.Alloc(11)
	m.WriteData(w, []byte("hello world"))
	if got := m.Mem.ReadBytes(w, 11); string(got) != "hello world" {
		t.Errorf("WriteData = %q", got)
	}
}

func TestLoopVisitsEveryIteration(t *testing.T) {
	m := newTestMachine(t)
	var got []int
	start := len(m.Tr.Recs)
	m.Loop("l", 4, func(i int) { got = append(got, i) })
	if !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("body ran for %v, want [0 1 2 3]", got)
	}
	// One bounds branch per iteration, plus the exit branch that keeps
	// post-loop code reachable without passing through the body.
	branches := 0
	for _, r := range m.Tr.Recs[start:] {
		if r.Kind == isa.KindBranch {
			branches++
		}
	}
	if branches != 5 {
		t.Errorf("%d branches, want 5", branches)
	}
}

func TestLoopPCStability(t *testing.T) {
	m := newTestMachine(t)
	fn := m.Func("looper", "test")
	base := m.Heap.Alloc(64)
	runPCs := func() map[uint32]bool {
		start := len(m.Tr.Recs)
		m.Call(fn, func() {
			m.Loop("l", 8, func(i int) { m.LoadU64(base + vmem.Addr(8*i)) })
		})
		pcs := map[uint32]bool{}
		for _, r := range m.Tr.Recs[start:] {
			if r.Func() == fn.ID { // root-frame call/ret sites are not part of the loop
				pcs[r.PC] = true
			}
		}
		return pcs
	}
	a := runPCs()
	b := runPCs()
	// Loop iterations must reuse sites: the distinct-PC count should be
	// small (a handful of loop-body sites), not proportional to iterations.
	if len(a) > 20 {
		t.Errorf("loop used %d distinct PCs; loop sites are not being reused", len(a))
	}
	for pc := range b {
		if !a[pc] {
			t.Errorf("second run used new PC %#x", pc)
		}
	}
}

func TestThreadRootFramesAndValidate(t *testing.T) {
	m := New()
	m.Thread(3, "Compositor")
	m.Switch(3)
	m.Const(5)
	r := m.Tr.Recs[0]
	if r.TID != 3 {
		t.Errorf("TID = %d", r.TID)
	}
	if m.Tr.FuncName(r.Func()) != "thread_root:Compositor" {
		t.Errorf("root frame func = %q", m.Tr.FuncName(r.Func()))
	}
	if m.Tr.Namespace(r.Func()) != "base/threading" {
		t.Errorf("root frame namespace = %q", m.Tr.Namespace(r.Func()))
	}
}

func TestDuplicateThreadPanics(t *testing.T) {
	m := New()
	m.Thread(0, "a")
	defer func() {
		if recover() == nil {
			t.Error("expected duplicate-thread panic")
		}
	}()
	m.Thread(0, "b")
}

// TestRecordingGrowsByDoubling: the trace and the register file double
// when full, so recording copies each record about once, and every record
// and register survives the copies. Doubling allocates 91 to 147 bytes a
// record, the most when the last record starts a new array (1<<20+1
// records); append's 1.25x steps allocated 203 to 213 bytes a record at
// every count tried from 3<<18 to 3<<19. The bound of 170 tells the two
// apart wherever the count falls against a capacity step.
func TestRecordingGrowsByDoubling(t *testing.T) {
	m := newTestMachine(t)
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		m.Const(uint64(i))
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 170 {
		t.Errorf("recording allocated %.0f bytes a record, want at most 170", per)
	}
	if len(m.Tr.Recs) != n {
		t.Fatalf("trace has %d records, want %d", len(m.Tr.Recs), n)
	}
	for i, r := range m.Tr.Recs {
		if r.Kind != isa.KindConst || r.Dst != isa.Reg(i+1) || m.Val(r.Dst) != uint64(i) {
			t.Fatalf("record %d = %+v holding %d after growth", i, r, m.Val(r.Dst))
		}
	}
}

// TestSplatStore: a scalar stored wider than 8 bytes repeats its 8 bytes
// little-endian across the span, the last copy cut short, also across a
// page boundary.
func TestSplatStore(t *testing.T) {
	m := newTestMachine(t)
	v := m.Const(0x0807060504030201)
	for _, size := range []int{13, 64} {
		a := vmem.HeapBase + vmem.PageSize - 5
		m.Store(a, size, v)
		got := m.Mem.ReadBytes(a, size+1)
		for i, b := range got[:size] {
			if b != byte(i%8+1) {
				t.Fatalf("size %d: byte %d = %d, want %d", size, i, b, i%8+1)
			}
		}
		if got[size] != 0 {
			t.Fatalf("size %d: store wrote past its span", size)
		}
	}
}
