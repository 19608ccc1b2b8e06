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

// TestStreamMatchesMaterialized: slicing through a streaming v3 source must
// produce byte-identical Results to slicing the materialized trace — across
// criteria, sequential and segmented engines, and block sizes that do and do
// not divide the trace length (non-aligned final blocks).
func TestStreamMatchesMaterialized(t *testing.T) {
	for _, tc := range segCases() {
		deps := forward(t, tc.m.Tr)
		for _, opts := range []Options{
			{ProgressPoints: 16, MainThread: 1},
			{Segments: 4, Workers: 4, ProgressPoints: 7},
			{Segments: 7, Workers: 2},
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

func TestPlanSegmentsAligned(t *testing.T) {
	for _, tc := range []struct{ n, k, align int }{
		{1000, 4, 128},   // n not a multiple of the block size
		{1000, 16, 192},  // non-power-of-two block size, k clamped
		{65536, 7, 4096}, // default v3 block size
		{383, 5, 64},     // tiny trace, k clamped to n/align
		{64, 8, 64},      // degenerate: one segment
		{1 << 20, 32, 256},
	} {
		b := planSegmentsAligned(tc.n, tc.k, tc.align)
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("n=%d k=%d align=%d: bounds %v do not cover [0,n]", tc.n, tc.k, tc.align, b)
		}
		if len(b)-1 > tc.k {
			t.Fatalf("n=%d k=%d align=%d: %d segments exceed k", tc.n, tc.k, tc.align, len(b)-1)
		}
		for s := 1; s < len(b); s++ {
			if b[s] <= b[s-1] {
				t.Fatalf("n=%d k=%d align=%d: bounds %v not strictly increasing", tc.n, tc.k, tc.align, b)
			}
			if s < len(b)-1 && b[s]%tc.align != 0 {
				t.Fatalf("n=%d k=%d align=%d: interior boundary %d not block-aligned", tc.n, tc.k, tc.align, b[s])
			}
			if s < len(b)-1 && b[s]%minSegmentRecs != 0 {
				t.Fatalf("n=%d k=%d align=%d: boundary %d breaks bitset-word disjointness", tc.n, tc.k, tc.align, b[s])
			}
		}
	}
	// A streaming source's plan must land on its block bounds.
	src := streamOf(t, constTrace(t, 1000), 128)
	if got := segmentAlign(src); got != 128 {
		t.Fatalf("segmentAlign(stream) = %d, want 128", got)
	}
	if got := segmentAlign(TraceSource(constTrace(t, 100))); got != minSegmentRecs {
		t.Fatalf("segmentAlign(materialized) = %d, want %d", got, minSegmentRecs)
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
		Segments:      1,
		Canceled:      func() bool { return true },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The maxReg prescan reads every block once; the walk itself must stop
	// within a couple of blocks of the first mid-block poll instead of
	// decoding the whole trace again.
	walkLoads := loads.Load() - int64(totalBlocks)
	if walkLoads < 1 || walkLoads > 4 {
		t.Fatalf("walk decoded %d blocks before honoring cancellation (total %d)", walkLoads, totalBlocks)
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
	for _, opts := range []Options{{NoControlDeps: true, Segments: 1}, {NoControlDeps: true, Segments: 4, Workers: 2}} {
		_, err = Slice(StreamSource(br), nil, []Criteria{PixelCriteria{}}, opts)
		var de *trace.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("opts %+v: err = %v, want *trace.DecodeError", opts, err)
		}
	}
}

// TestStreamSliceBoundedAllocBytes is the peak-memory regression gate: a
// sequential streaming slice of a 64Ki-record trace must allocate a small
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
	opts := Options{NoControlDeps: true, Segments: 1}
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
// itself stays allocation-light (pooled inflater, pooled window buffer).
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
