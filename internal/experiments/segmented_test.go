package experiments

// Byte-equivalence of the segmented backward pass on real rendered
// workloads: property sites (random seeds) and a golden-corpus entry,
// compared digest-for-digest against the sequential walk. The slicer's own
// unit tests cover handcrafted boundary cases; this suite covers the
// browser-shaped traces the profiler actually sees.

import (
	"testing"

	"webslice/internal/sites"
	"webslice/internal/slicer"
)

func TestSegmentedDigestsMatchSequential(t *testing.T) {
	benches := []sites.Benchmark{
		sites.Random(11),
		sites.Random(1212),
		sites.AmazonDesktop(sites.Options{Scale: 0.05, Browse: true}),
	}
	for _, b := range benches {
		v, err := runVerified(b) // sequential: verifyOpts has no Workers/Segments
		if err != nil {
			t.Fatal(err)
		}
		for _, segs := range []int{3, 8} {
			opts := verifyOpts
			opts.Segments = segs
			opts.Workers = 4
			var stats slicer.PassStats
			opts.Stats = &stats
			rs, err := slicer.Slice(slicer.TraceSource(v.tr), v.deps, []slicer.Criteria{
				slicer.PixelCriteria{},
				slicer.SyscallCriteria{},
				slicer.Union{slicer.PixelCriteria{}, slicer.SyscallCriteria{}},
			}, opts)
			if err != nil {
				t.Fatalf("%s k=%d: %v", b.Name, segs, err)
			}
			for i, want := range []*slicer.Result{v.pix, v.sys, v.uni} {
				if wd, gd := SliceDigest(want), SliceDigest(rs[i]); wd != gd {
					t.Errorf("%s k=%d criterion %s: segmented digest %s != sequential %s",
						b.Name, segs, want.Criteria, gd, wd)
				}
			}
			if stats.Sequential && len(v.tr.Recs) >= 2*64 {
				t.Errorf("%s k=%d: pass unexpectedly ran sequentially", b.Name, segs)
			}
		}
	}
}

func TestExecuteBackward(t *testing.T) {
	res, err := ExecuteBackward(Config{Scale: 0.05, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatal("segmented slice did not match sequential")
	}
	if res.Segments < 2 {
		t.Errorf("segments = %d, want forced segmentation", res.Segments)
	}
	if res.SequentialMs <= 0 || res.SegmentedMs <= 0 || res.Speedup <= 0 {
		t.Errorf("degenerate timing: %+v", res)
	}
}
