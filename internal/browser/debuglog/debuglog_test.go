package debuglog

import (
	"testing"

	"webslice/internal/vm"
)

// TestHistogramBumpsBucket: each of Verbosity rounds bumps its sample's
// bucket in traced memory.
func TestHistogramBumpsBucket(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	l := New(m, 5)
	l.Histogram(0) // samples 0..4 all fall in bucket 0
	if v := m.Mem.ReadU64(l.buckets, 8); v != 5 {
		t.Errorf("bucket 0 = %d, want 5", v)
	}
	if v := m.Mem.ReadU64(l.buckets+8, 8); v != 0 {
		t.Errorf("bucket 1 = %d, want 0", v)
	}
}
