package slicer

// FuzzSliceNeverPanics feeds arbitrary decoded traces through the full
// backward pass (pixels and a selected criterion, one walk each, with and
// without control dependences).
// The slicer must return a result or be rejected upstream — never panic.
// Inputs that would merely allocate absurdly (gigabyte memory ranges) are
// skipped: those are resource limits for the service layer, not slicer
// correctness. Register IDs are not limited: the live-register set stays
// bounded by the record count whatever IDs a trace names.

import (
	"bytes"
	"testing"

	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/trace"
)

const (
	fuzzMaxRecs    = 1 << 16
	fuzzMaxMemSize = 1 << 20
)

// sliceable rejects traces whose operands would drive huge allocations.
func sliceable(t *trace.Trace) bool {
	if len(t.Recs) > fuzzMaxRecs {
		return false
	}
	for _, e := range t.Sys {
		for _, rg := range e.Reads {
			if rg.Size > fuzzMaxMemSize {
				return false
			}
		}
		for _, rg := range e.Writes {
			if rg.Size > fuzzMaxMemSize {
				return false
			}
		}
	}
	for _, m := range t.Marks {
		if m.Buf.Size > fuzzMaxMemSize {
			return false
		}
	}
	return true
}

// encodeWorkload returns the v3 encoding of the multi-kind workload that
// seeds the fuzz target.
func encodeWorkload(f *testing.F) []byte {
	var buf bytes.Buffer
	if err := multiWorkload().Tr.WriteV3(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// readTrace decodes a fuzz input as a v3 trace.
func readTrace(data []byte) (*trace.Trace, error) {
	br, err := trace.OpenV3(data)
	if err != nil {
		return nil, err
	}
	return br.ReadAll()
}

func FuzzSliceNeverPanics(f *testing.F) {
	// Seed with a real workload covering every record kind, a truncation of
	// it, and bytes that are not a trace at all.
	enc := encodeWorkload(f)
	f.Add(enc, byte(0))
	f.Add(enc[:len(enc)*2/3], byte(1))
	f.Add([]byte("WSLT not really"), byte(2))

	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		tr, err := readTrace(data)
		if err != nil {
			return // corrupt input is the decoder's concern
		}
		if !sliceable(tr) {
			return
		}
		var deps *cdg.Deps
		var opts Options
		if forest, err := cfg.Build(tr); err == nil {
			deps = cdg.Compute(forest)
		} else {
			opts.NoControlDeps = true
		}
		var c Criteria
		switch sel % 3 {
		case 0:
			c = PixelCriteria{}
		case 1:
			c = SyscallCriteria{}
		default:
			c = Union{PixelCriteria{}, SyscallCriteria{}}
		}
		for _, crit := range []Criteria{PixelCriteria{}, c} {
			if res, err := Slice(tr, deps, crit, opts); err == nil && res.SliceCount > res.Total {
				t.Fatalf("%s slice of %d records from a trace of %d", crit.Name(), res.SliceCount, res.Total)
			}
		}
	})
}
