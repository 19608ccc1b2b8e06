package slicer

// Equivalence of the segmented parallel backward pass against the
// sequential reference walk: every Result field — bitset words, counts,
// per-thread/per-function tallies, progress samples, pending residue —
// must be identical for any segment count, worker count, and boundary
// placement. The golden corpus, the artifact store, and the replay oracle
// all assume a slice's bytes do not depend on how it was scheduled.

import (
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// spanWorkload builds a trace whose calls and pending branches span long
// record ranges, so any interior segment boundary lands mid-call and
// usually mid-pending-branch: one outer call covers almost the whole
// trace, and each branch guards a store hundreds of records later.
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
					// liveness interval across boundaries.
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
				// next to) any 64-aligned boundary.
				m.MarkPixels(vmem.Range{Addr: tile, Size: 256})
			}
		}
	})
	m.MarkPixels(vmem.Range{Addr: tile, Size: 4096})
	return m
}

// segCases are the (workload, criteria) combinations every segmentation
// test sweeps.
func segCases() []struct {
	name string
	m    *vm.Machine
	cs   []Criteria
} {
	return []struct {
		name string
		m    *vm.Machine
		cs   []Criteria
	}{
		{"multi", multiWorkload(), []Criteria{PixelCriteria{}, SyscallCriteria{}, Union{PixelCriteria{}, SyscallCriteria{}}}},
		{"bench", benchWorkload(256), []Criteria{PixelCriteria{}, SyscallCriteria{}}},
		{"span", spanWorkload(160), []Criteria{PixelCriteria{}}},
	}
}

func TestSegmentedMatchesSequential(t *testing.T) {
	for _, tc := range segCases() {
		deps := forward(t, tc.m.Tr)
		n := len(tc.m.Tr.Recs)
		for _, opts := range []Options{
			{},
			{ProgressPoints: 16, MainThread: 1},
			{ProgressPoints: 7},
			{NoControlDeps: true},
		} {
			seqOpts := opts
			seqOpts.Segments = 1
			want, err := Slice(TraceSource(tc.m.Tr), deps, tc.cs, seqOpts)
			if err != nil {
				t.Fatalf("%s sequential: %v", tc.name, err)
			}
			for _, segs := range []int{2, 3, 5, 16, n, 1 << 20} {
				for _, workers := range []int{1, 4} {
					segOpts := opts
					segOpts.Segments = segs
					segOpts.Workers = workers
					var stats PassStats
					segOpts.Stats = &stats
					got, err := Slice(TraceSource(tc.m.Tr), deps, tc.cs, segOpts)
					if err != nil {
						t.Fatalf("%s segmented(k=%d,w=%d): %v", tc.name, segs, workers, err)
					}
					for k := range tc.cs {
						if !reflect.DeepEqual(want[k], got[k]) {
							t.Errorf("%s opts %+v k=%d w=%d criterion %s: segmented result differs\nseq: %+v\nseg: %+v",
								tc.name, opts, segs, workers, tc.cs[k].Name(), want[k], got[k])
						}
					}
					if wantSegs := len(planSegments(n, segs)) - 1; stats.Segments != wantSegs {
						t.Errorf("%s k=%d: Stats.Segments = %d, want %d", tc.name, segs, stats.Segments, wantSegs)
					}
				}
			}
		}
	}
}

// TestSegmentedEveryBoundary drives the segmented engine with a handcrafted
// two-segment split at every 64-aligned record index, so boundaries land
// mid-call, mid-pending-branch, and exactly at marker/criterion records —
// the exhaustive edge-case sweep behind the random segment counts above.
func TestSegmentedEveryBoundary(t *testing.T) {
	for _, tc := range segCases() {
		deps := forward(t, tc.m.Tr)
		n := len(tc.m.Tr.Recs)
		opts := Options{ProgressPoints: 11, Segments: 1}
		want, err := Slice(TraceSource(tc.m.Tr), deps, tc.cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for b := minSegmentRecs; b < n; b += minSegmentRecs {
			got, err := sliceSegmented(TraceSource(tc.m.Tr), deps, tc.cs, opts, []int{0, b, n})
			if err != nil {
				t.Fatalf("%s boundary %d: %v", tc.name, b, err)
			}
			for k := range tc.cs {
				if !reflect.DeepEqual(want[k], got[k]) {
					t.Fatalf("%s boundary %d criterion %s: segmented result differs",
						tc.name, b, tc.cs[k].Name())
				}
			}
		}
		// Three-way splits around a few interesting interior points.
		for _, pair := range [][2]int{{minSegmentRecs, 2 * minSegmentRecs}, {minSegmentRecs, (n / 2) &^ 63}} {
			if pair[1] <= pair[0] || pair[1] >= n {
				continue
			}
			got, err := sliceSegmented(TraceSource(tc.m.Tr), deps, tc.cs, opts, []int{0, pair[0], pair[1], n})
			if err != nil {
				t.Fatal(err)
			}
			for k := range tc.cs {
				if !reflect.DeepEqual(want[k], got[k]) {
					t.Fatalf("%s split %v criterion %s: segmented result differs", tc.name, pair, tc.cs[k].Name())
				}
			}
		}
	}
}

func TestPlanSegments(t *testing.T) {
	if got := planSegments(0, 8); !reflect.DeepEqual(got, []int{0, 0}) {
		t.Errorf("planSegments(0, 8) = %v, want [0 0]", got)
	}
	for _, tt := range []struct {
		n, k     int
		wantSegs int
	}{
		{63, 8, 1},          // below the per-segment minimum
		{1000, 1, 1},        // forced sequential
		{1000, 4, 4},        // normal split
		{1000, 1 << 20, 15}, // K far beyond n/minSegmentRecs clamps to it
		{128, 2, 2},
	} {
		bounds := planSegments(tt.n, tt.k)
		if got := len(bounds) - 1; got != tt.wantSegs {
			t.Errorf("planSegments(%d, %d) = %v: %d segments, want %d", tt.n, tt.k, bounds, got, tt.wantSegs)
		}
		if bounds[0] != 0 || bounds[len(bounds)-1] != tt.n {
			t.Errorf("planSegments(%d, %d) = %v: bad end bounds", tt.n, tt.k, bounds)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Errorf("planSegments(%d, %d) = %v: not strictly increasing", tt.n, tt.k, bounds)
			}
			if i < len(bounds)-1 && bounds[i]%minSegmentRecs != 0 {
				t.Errorf("planSegments(%d, %d) = %v: interior boundary %d not %d-aligned", tt.n, tt.k, bounds, bounds[i], minSegmentRecs)
			}
		}
	}
}

// TestSegmentedCancel: the Canceled hook must abort the parallel scan, the
// stitch, and the tally phases with ErrCanceled, never a partial result.
// The trace spans several cancelStride multiples so the hook genuinely
// fires mid-segment, not just at the walk's start.
func TestSegmentedCancel(t *testing.T) {
	m := benchWorkload(3 * cancelStride / 14)
	deps := forward(t, m.Tr)
	// Fire after a fixed number of polls so each phase gets a chance to be
	// the one that observes the cancellation across reruns. The counter is
	// atomic: segment scans poll concurrently.
	for _, fireAfter := range []int64{0, 1, 3, 5} {
		var polls atomic.Int64
		opts := Options{
			Segments:       8,
			Workers:        4,
			ProgressPoints: 16,
			Canceled: func() bool {
				return polls.Add(1) > fireAfter
			},
		}
		if _, err := Slice(TraceSource(m.Tr), deps, []Criteria{PixelCriteria{}}, opts); err != ErrCanceled {
			t.Fatalf("fireAfter=%d: err = %v, want ErrCanceled", fireAfter, err)
		}
	}
}

// TestSliceScratchPooled is the allocation-count regression gate on the
// pooled scratch path: once the pools are warm, a backward pass must not
// re-allocate its big per-pass scratch (live-register words, live-memory
// buckets, frame stacks) — only the Result itself and its tallies.
func TestSliceScratchPooled(t *testing.T) {
	m := benchWorkload(256)
	deps := forward(t, m.Tr)
	opts := Options{Segments: 1}
	run := func() {
		if _, err := Slice(TraceSource(m.Tr), deps, []Criteria{PixelCriteria{}}, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm the pools
	}
	// An unpooled pass allocates the register bitset (~n/16 words), the
	// live-memory map, and a frame stack per thread on every run — several
	// hundred allocations on this workload before pooling. The budget leaves
	// room for the Result, its maps, and pool-miss noise, while failing
	// loudly if the scratch stops being reused.
	const budget = 120
	if got := testing.AllocsPerRun(20, run); got > budget {
		t.Errorf("sequential pass allocates %.0f objects/run, budget %d — pooled scratch regressed", got, budget)
	}
}

// TestSegmentedBackwardPerfGate is the ci.sh bench gate: on a multi-core
// machine the segmented backward pass must not be more than 20% slower than
// the sequential walk on the committed corpus workload (it should be
// faster; the gate bounds the regression, benchstat measures the win).
// Opt-in via WEBSLICE_BENCH_GATE=1 because wall-clock assertions are too
// flaky for the ordinary -race unit run.
func TestSegmentedBackwardPerfGate(t *testing.T) {
	if os.Getenv("WEBSLICE_BENCH_GATE") == "" {
		t.Skip("set WEBSLICE_BENCH_GATE=1 to run the wall-clock gate")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: the segmented pass cannot beat sequential without a second core", runtime.GOMAXPROCS(0))
	}
	m := benchWorkload(4096)
	deps := forward(t, m.Tr)
	cs := []Criteria{PixelCriteria{}, SyscallCriteria{}}
	best := func(opts Options) time.Duration {
		d := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := Slice(TraceSource(m.Tr), deps, cs, opts); err != nil {
				t.Fatal(err)
			}
			if e := time.Since(start); e < d {
				d = e
			}
		}
		return d
	}
	seq := best(Options{Segments: 1})
	seg := best(Options{})
	t.Logf("sequential %v, segmented %v (%.2fx)", seq, seg, float64(seq)/float64(seg))
	if float64(seg) > 1.2*float64(seq) {
		t.Fatalf("segmented backward pass %v is >20%% slower than sequential %v", seg, seq)
	}
}

// TestResolveSegments pins the automatic-mode decision table.
func TestResolveSegments(t *testing.T) {
	big := autoSegmentMinRecs
	for _, tt := range []struct {
		opts Options
		n    int
		want int
	}{
		{Options{Segments: 1}, big, 1},
		{Options{Segments: -3}, big, 1},
		{Options{Segments: 6}, 100, 6},
		{Options{Workers: 1}, big, 1},     // one worker: nothing to parallelize
		{Options{Workers: 4}, big - 1, 1}, // too small to amortize the stitch
		{Options{Workers: 4}, big, 4 * segmentsPerWorker},
	} {
		if got := resolveSegments(tt.opts, tt.n); got != tt.want {
			t.Errorf("resolveSegments(%+v, %d) = %d, want %d", tt.opts, tt.n, got, tt.want)
		}
	}
}
