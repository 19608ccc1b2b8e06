package trace_test

import (
	"bytes"
	"sync"
	"testing"

	"webslice/internal/browser"
	"webslice/internal/sites"
	"webslice/internal/trace"
)

// uploadSeeds are sites.Random seeds whose v3 encodings have the size of a
// typical upload-cold upload: 96-105K records in 364-388 KB.
var uploadSeeds = []uint64{3, 4, 6}

var (
	uploadsOnce sync.Once
	uploads     [][]byte
)

// propertyUploads renders the uploadSeeds sites once per test binary and
// returns their v3 encodings.
func propertyUploads(b *testing.B) [][]byte {
	uploadsOnce.Do(func() {
		for _, seed := range uploadSeeds {
			s := sites.Random(seed)
			br := browser.New(s.Site, s.Profile)
			br.RunSession()
			if len(br.Errors) > 0 {
				b.Fatal(br.Errors[0])
			}
			var buf bytes.Buffer
			if err := br.M.Tr.WriteV3(&buf); err != nil {
				b.Fatal(err)
			}
			uploads = append(uploads, buf.Bytes())
		}
	})
	return uploads
}

// openUploads opens every property upload.
func openUploads(b *testing.B) []*trace.BlockReader {
	var out []*trace.BlockReader
	for _, up := range propertyUploads(b) {
		br, err := trace.OpenV3(up)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, br)
	}
	return out
}

// reportPerUpload reports the time per property upload.
func reportPerUpload(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*n), "ms/upload")
}

// BenchmarkInflate inflates every block of the property uploads, as one
// ReadAll worker does: one inflater, its buffer reused.
func BenchmarkInflate(b *testing.B) {
	brs := openUploads(b)
	in := trace.NewInflater()
	b.ResetTimer()
	for range b.N {
		for _, br := range brs {
			for i := range br.NumBlocks() {
				if _, err := br.Inflate(in, i); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	reportPerUpload(b, len(brs))
}

// BenchmarkDecodeColumns decodes the inflated columns of every block of
// the property uploads into one reused record array.
func BenchmarkDecodeColumns(b *testing.B) {
	brs := openUploads(b)
	in := trace.NewInflater()
	raws := make([][][]byte, len(brs))
	for u, br := range brs {
		for i := range br.NumBlocks() {
			raw, err := br.Inflate(in, i)
			if err != nil {
				b.Fatal(err)
			}
			raws[u] = append(raws[u], bytes.Clone(raw))
		}
	}
	var dst []trace.Rec
	b.ResetTimer()
	for range b.N {
		for u, br := range brs {
			for i, raw := range raws[u] {
				var err error
				if dst, err = br.DecodeColumns(i, raw, dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	reportPerUpload(b, len(brs))
}
