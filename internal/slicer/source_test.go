package slicer

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"webslice/internal/isa"
	"webslice/internal/trace"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// streamOf round-trips tr through the v3 block encoding and returns a
// streaming source over it.
func streamOf(t *testing.T, tr *trace.Trace, blockRecs int) Source {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteV3Blocks(&buf, blockRecs); err != nil {
		t.Fatal(err)
	}
	br, err := trace.OpenV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return StreamSource(br)
}

// spanWorkload builds a trace whose calls and pending branches span long
// record ranges, so block boundaries land mid-call and usually
// mid-pending-branch: one outer call covers almost the whole trace, and
// each branch guards a store hundreds of records later.
func spanWorkload(n int) *vm.Machine {
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "helper")
	tile := m.Tile.Alloc(4096)
	stats := m.Heap.Alloc(64)
	outer := m.Func("frame", "gfx")
	inner := m.Func("row", "gfx")
	m.Call(outer, func() {
		m.At("head")
		for i := 0; i < n; i++ {
			c := m.Const(uint64(i % 3))
			if m.Branch(c) {
				m.At("taken")
				m.Call(inner, func() {
					m.At("body")
					v := m.Const(uint64(i))
					// Dead bookkeeping between def and use stretches the
					// liveness interval across block boundaries.
					m.Bookkeep(stats, 5)
					v2 := m.AddImm(v, 7)
					m.StoreU32(tile+vmem.Addr(4*(i%1024)), v2)
				})
			} else {
				m.At("skipped")
				m.Bookkeep(stats, 3)
			}
			if i%17 == 0 {
				// Cross-thread dataflow through shared memory.
				m.Switch(1)
				w := m.Const(uint64(i))
				m.StoreU32(tile+vmem.Addr(4*((i+13)%1024)), w)
				m.Switch(0)
			}
			if i%29 == 0 {
				// A mid-trace criterion record: markers can land on (or
				// next to) a block boundary.
				m.MarkPixels(vmem.Range{Addr: tile, Size: 256})
			}
		}
	})
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4096})
	return m
}

// TestStreamMatchesMaterialized: slicing through a streaming v3 source must
// produce byte-identical Results to slicing the materialized trace — across
// criteria, options, and block sizes that do and do not divide the trace
// length (non-aligned final blocks).
func TestStreamMatchesMaterialized(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *vm.Machine
		cs   []Criteria
	}{
		{"multi", multiWorkload(), []Criteria{PixelCriteria{}, SyscallCriteria{}, Union{PixelCriteria{}, SyscallCriteria{}}}},
		{"bench", benchWorkload(256), []Criteria{PixelCriteria{}, SyscallCriteria{}}},
		{"span", spanWorkload(160), []Criteria{PixelCriteria{}}},
	} {
		deps := forward(t, tc.m.Tr)
		for _, opts := range []Options{
			{ProgressPoints: 16, MainThread: 1},
			{NoControlDeps: true},
		} {
			want, err := Slice(TraceSource(tc.m.Tr), deps, tc.cs, opts)
			if err != nil {
				t.Fatalf("%s materialized: %v", tc.name, err)
			}
			for _, blockRecs := range []int{64, 192, 1024} {
				src := streamOf(t, tc.m.Tr, blockRecs)
				got, err := Slice(src, deps, tc.cs, opts)
				if err != nil {
					t.Fatalf("%s streaming(block=%d) opts %+v: %v", tc.name, blockRecs, opts, err)
				}
				for k := range tc.cs {
					if !reflect.DeepEqual(want[k], got[k]) {
						t.Fatalf("%s streaming(block=%d) opts %+v criterion %s: result differs from materialized",
							tc.name, blockRecs, opts, tc.cs[k].Name())
					}
				}
			}
		}
	}
}

// constTrace builds an n-record single-function trace of consts with one
// pixel marker at the end — the minimal workload for streaming-path tests.
func constTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	tr := trace.New()
	fn, err := tr.AddFunc("f", "gfx")
	if err != nil {
		t.Fatal(err)
	}
	tr.Threads = append(tr.Threads, trace.ThreadInfo{ID: 0, Name: "main"})
	tr.Recs = make([]trace.Rec, n)
	for i := range tr.Recs {
		tr.Recs[i] = trace.Rec{PC: trace.MakePC(fn, uint16(i%100)), Kind: isa.KindConst, Dst: isa.Reg(1 + i%8)}
	}
	tr.Recs[n-1] = trace.Rec{PC: trace.MakePC(fn, 0), Kind: isa.KindMarker, Aux: 1}
	tr.Marks[n-1] = &trace.Mark{ID: 1, Kind: isa.MarkPixels, Buf: vmem.Range{Addr: 0x100, Size: 64}}
	return tr
}

// countingSource wraps a Source, counting LoadRange calls.
type countingSource struct {
	Source
	loads *atomic.Int64
}

func (c countingSource) LoadRange(lo, hi int, buf []trace.Rec) ([]trace.Rec, error) {
	c.loads.Add(1)
	return c.Source.LoadRange(lo, hi, buf)
}

// TestStreamCanceledMidBlock: the Canceled hook fires at record indices that
// are multiples of cancelStride. With a 192-record block size, index 32768
// falls 128 records into a block, so the poll lands mid-block and the walk
// must abort without decoding the blocks below it.
func TestStreamCanceledMidBlock(t *testing.T) {
	n := cancelStride + 232 // walk starts above the poll index, poll mid-block
	tr := constTrace(t, n)
	var loads atomic.Int64
	src := countingSource{Source: streamOf(t, tr, 192), loads: &loads}
	totalBlocks := (n + 191) / 192
	if cancelStride%192 == 0 {
		t.Fatal("test premise broken: poll index is block-aligned")
	}
	_, err := Slice(src, nil, []Criteria{PixelCriteria{}}, Options{
		NoControlDeps: true,
		Canceled:      func() bool { return true },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The walk must stop within a couple of blocks of the first mid-block
	// poll instead of decoding the whole trace.
	if walkLoads := loads.Load(); walkLoads < 1 || walkLoads > 4 {
		t.Fatalf("walk decoded %d blocks before honoring cancellation (total %d)", walkLoads, totalBlocks)
	}
}

// TestStreamDecodesEachBlockOnce: a streaming backward pass — several
// criteria fused — decodes every block exactly once, in one reverse walk.
func TestStreamDecodesEachBlockOnce(t *testing.T) {
	m := benchWorkload(256)
	deps := forward(t, m.Tr)
	var loads atomic.Int64
	src := countingSource{Source: streamOf(t, m.Tr, 192), loads: &loads}
	if _, err := Slice(src, deps, []Criteria{PixelCriteria{}, SyscallCriteria{}}, Options{ProgressPoints: 16}); err != nil {
		t.Fatal(err)
	}
	blocks := (len(m.Tr.Recs) + 191) / 192
	if blocks < 2 {
		t.Fatal("test premise broken: workload fits in one block")
	}
	if got := loads.Load(); got != int64(blocks) {
		t.Fatalf("streaming slice decoded %d blocks, want each of the %d blocks once", got, blocks)
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
	src := streamOf(t, tr, trace.DefaultBlockRecs)
	cs := []Criteria{SyscallCriteria{}}
	opts := Options{NoControlDeps: true}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rs, err := Slice(src, nil, cs, opts)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].InSlice.Get(0) || !rs[0].InSlice.Get(1) || rs[0].SliceCount != 2 {
		t.Fatalf("slice = %d records (bits %b), want both the const and the syscall", rs[0].SliceCount, rs[0].InSlice)
	}
	if delta := m1.TotalAlloc - m0.TotalAlloc; delta > 1<<20 {
		t.Fatalf("slicing a two-record trace allocated %d bytes, want under 1 MiB", delta)
	}
}

// TestStreamDecodeErrorPropagates: a corrupt block surfaces as a typed
// decode error from the slice, not a panic or a silent wrong answer.
func TestStreamDecodeErrorPropagates(t *testing.T) {
	tr := constTrace(t, 1024)
	var buf bytes.Buffer
	if err := tr.WriteV3Blocks(&buf, 64); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Open first (open only checks the index), then corrupt a block payload
	// in place so DecodeBlock trips mid-walk.
	br, err := trace.OpenV3(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc[200] ^= 0xFF
	_, err = Slice(StreamSource(br), nil, []Criteria{PixelCriteria{}}, Options{NoControlDeps: true})
	var de *trace.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *trace.DecodeError", err)
	}
}

// TestStreamSliceBoundedAllocBytes is the peak-memory regression gate: a
// streaming slice of a 64Ki-record trace must allocate a small
// fraction of what materializing the record slice would cost, proving the
// walk decodes one block window at a time instead of the whole trace.
func TestStreamSliceBoundedAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates TotalAlloc; the byte bound runs without -race")
	}
	n := 1 << 16
	tr := constTrace(t, n)
	src := streamOf(t, tr, 256)
	cs := []Criteria{PixelCriteria{}}
	opts := Options{NoControlDeps: true}
	run := func() {
		if _, err := Slice(src, nil, cs, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	recBytes := uint64(n) * uint64(unsafe.Sizeof(trace.Rec{}))
	delta := m1.TotalAlloc - m0.TotalAlloc
	if delta > recBytes/4 {
		t.Fatalf("streaming slice allocated %d bytes; materializing the records costs %d — the walk must stay block-windowed (limit %d)",
			delta, recBytes, recBytes/4)
	}
}

// TestStreamWindowAllocsSteadyState: after warm-up, the per-window load path
// itself stays allocation-light (the reader's own inflater, pooled window
// buffer).
func TestStreamWindowAllocsSteadyState(t *testing.T) {
	tr := constTrace(t, 4096)
	src := streamOf(t, tr, 256)
	buf := getRecBuf()
	defer putRecBuf(buf)
	sink := 0
	avg := testing.AllocsPerRun(20, func() {
		err := reverseWindows(src, 0, src.NumRecs(), buf, func(_ int, recs []trace.Rec) bool {
			sink += len(recs)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	blocks := float64(16)
	if avg > 4*blocks {
		t.Fatalf("reverseWindows averaged %.1f allocs for %g blocks — the decode path must stay pooled", avg, blocks)
	}
}
