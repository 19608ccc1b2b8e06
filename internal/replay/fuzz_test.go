package replay

// FuzzReplayAgreesWithSlice is the end-to-end property under fuzzing: for an
// arbitrary seed, the property-site generator builds a mini-site through the
// real browser pipeline, the optimized slicer computes pixel/syscall/union
// slices, and every slice must replay byte-for-byte and satisfy the
// structural invariants. Seeded with the golden corpus's property seeds
// (examples/golden/corpus.json) so the committed ground truth is always in
// the fuzzer's starting population.

import (
	"testing"

	"webslice/internal/browser"
	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/sites"
	"webslice/internal/slicer"
)

func FuzzReplayAgreesWithSlice(f *testing.F) {
	for _, seed := range []uint64{1001, 1002, 1003, 1004, 1, 7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		b := sites.Random(seed)
		br := browser.New(b.Site, b.Profile)
		tape := br.M.Capture()
		br.RunSession()
		br.M.SealTape()
		if len(br.Errors) > 0 {
			t.Fatalf("seed %d: browser: %v", seed, br.Errors[0])
		}
		tr := br.M.Tr
		forest, err := cfg.Build(tr)
		if err != nil {
			t.Fatalf("seed %d: forward pass: %v", seed, err)
		}
		deps := cdg.Compute(forest)
		checks := []struct {
			c   slicer.Criteria
			cfg Config
		}{
			{slicer.PixelCriteria{}, Config{CheckPixels: true}},
			{slicer.SyscallCriteria{}, Config{CheckSyscalls: true}},
			{slicer.Union{slicer.PixelCriteria{}, slicer.SyscallCriteria{}}, Config{CheckPixels: true, CheckSyscalls: true}},
		}
		rs := make([]*slicer.Result, len(checks))
		for k, ck := range checks {
			res, err := slicer.Slice(tr, deps, ck.c, slicer.Options{MainThread: browser.MainThread})
			if err != nil {
				t.Fatalf("seed %d: slice: %v", seed, err)
			}
			rs[k] = res
			if d := Replay(tr, tape, res, ck.cfg); d != nil {
				t.Errorf("seed %d: slice %q does not replay: %v", seed, res.Criteria, d)
			}
			if err := CheckInvariants(tr, deps, res); err != nil {
				t.Errorf("seed %d: slice %q: %v", seed, res.Criteria, err)
			}
		}
		if err := CheckMonotonic(rs[2], rs[0], rs[1]); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	})
}
