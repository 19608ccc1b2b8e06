package experiments

// The parallel experiment runner must be a pure scheduling change: running
// the Table II sites and their criteria comparisons across a worker pool has
// to produce the same runs and comparisons, in the same order, with
// byte-identical slice artifacts, as the sequential loop. Errors must also
// surface deterministically (lowest unit index wins).

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"webslice/internal/store"
)

func TestParallelTableIIMatchesSequential(t *testing.T) {
	seq, err := ExecuteTableIIWith(Config{Scale: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExecuteTableIIWith(Config{Scale: 0.05, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seqCmp, err := ExecuteCriteriaComparison(seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	parCmp, err := ExecuteCriteriaComparison(par, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("run counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Bench.Site.Name != par[i].Bench.Site.Name {
			t.Fatalf("result order changed at %d: %s vs %s", i, seq[i].Bench.Site.Name, par[i].Bench.Site.Name)
		}
		if !bytes.Equal(store.EncodeResult(seq[i].Pixel), store.EncodeResult(par[i].Pixel)) {
			t.Errorf("%s: pixel slice bytes differ between sequential and parallel runs", seq[i].Bench.Site.Name)
		}
		if seqCmp[i] != parCmp[i] {
			t.Errorf("%s: criteria comparison differs between sequential (%+v) and parallel (%+v) runs", seq[i].Bench.Site.Name, seqCmp[i], parCmp[i])
		}
		if par[i].Timing.RenderMs < 0 || par[i].Timing.ForwardMs < 0 || par[i].Timing.SliceMs < 0 {
			t.Errorf("%s: negative stage timing %+v", par[i].Bench.Site.Name, par[i].Timing)
		}
	}
}

func TestForEachDeterministicError(t *testing.T) {
	first := errors.New("unit 1 failed")
	later := errors.New("unit 5 failed")
	// 16 workers for 8 units shrinks the pool to 8, whatever GOMAXPROCS is.
	for _, workers := range []int{1, 4, 16} {
		err := forEach(workers, 8, func(i int) error {
			switch i {
			case 1:
				return first
			case 5:
				return later
			}
			return nil
		})
		if !errors.Is(err, first) {
			t.Errorf("workers=%d: got %v, want the lowest-index error", workers, err)
		}
	}
}

// TestForEachVisitsEveryUnitOnce: every index runs once, with any number
// of workers, and an error at index 1 stops none of the later ones.
func TestForEachVisitsEveryUnitOnce(t *testing.T) {
	failed := errors.New("unit 1 failed")
	for _, tc := range []struct {
		workers, n int
		errAt      int // -1: no unit fails
	}{{7, 100, -1}, {1, 8, 1}} {
		counts := make([]atomic.Int32, tc.n)
		err := forEach(tc.workers, tc.n, func(i int) error {
			counts[i].Add(1)
			if i == tc.errAt {
				return failed
			}
			return nil
		})
		if want := tc.errAt >= 0; errors.Is(err, failed) != want {
			t.Errorf("workers=%d: error %v, want the failure: %t", tc.workers, err, want)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Errorf("workers=%d: unit %d ran %d times", tc.workers, i, n)
			}
		}
	}
}
