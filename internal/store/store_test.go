package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webslice/internal/cdg"
	"webslice/internal/slicer"
	"webslice/internal/trace"
)

// incompressible returns n bytes of xorshift noise: distinct bytes that no
// general-purpose compressor shrinks.
func incompressible(n int) []byte {
	out := make([]byte, n)
	x := uint32(0x9E3779B9)
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("forward-pass artifact")
	s.Put("cdg", "abc123", data)
	got, ok, err := s.Get("cdg", "abc123")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v, %v", got, ok, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %q, want %q", got, data)
	}
	if _, ok, _ := s.Get("cdg", "missing"); ok {
		t.Fatal("Get of a missing key reported ok")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.MemHits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 mem hit / 1 put", st)
	}
}

func TestDiskPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	s1.Put("slice", "k1", []byte("result bytes"))
	// A second store over the same directory — cold memory layer — must
	// serve the artifact from disk.
	s2, _ := Open(dir, 0)
	got, ok, err := s2.Get("slice", "k1")
	if err != nil || !ok || string(got) != "result bytes" {
		t.Fatalf("reopened Get = %q, %v, %v", got, ok, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats = %+v, want the hit to come from disk", st)
	}
	// And now it is promoted into memory.
	if _, ok, _ := s2.Get("slice", "k1"); !ok {
		t.Fatal("promoted Get missed")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats = %+v, want a mem hit after promotion", st)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	s.Put("cdg", "victim", bytes.Repeat([]byte{0xAA}, 256))
	// Flip one payload bit on disk, then read through a cold store.
	path := filepath.Join(dir, "cdg-victim.wsab")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cold, _ := Open(dir, 0)
	_, ok, err := cold.Get("cdg", "victim")
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of corrupt blob = ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	if st := cold.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", st)
	}
	// The damaged file was removed: the next Get is a clean miss.
	if _, ok, err := cold.Get("cdg", "victim"); ok || err != nil {
		t.Fatalf("Get after corruption cleanup = ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestCorruptPayloadEvictionDecrementsMemBytes(t *testing.T) {
	// A blob whose envelope checksum passes but whose payload doesn't decode
	// (e.g. written by a buggy encoder) must be evicted from the LRU layer
	// with its bytes subtracted from the gauge — not left poisoning the cache
	// while permanently consuming budget.
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	junk := bytes.Repeat([]byte{0xFF}, 512) // valid envelope, undecodable payload
	s.Put(KindDeps, "poisoned", junk)
	if want := int64(len(seal(junk))); s.MemBytes() != want {
		t.Fatalf("MemBytes = %d after put, want the sealed size %d", s.MemBytes(), want)
	}
	_, ok, err := s.GetDeps("poisoned")
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetDeps of junk = ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	if s.MemBytes() != 0 {
		t.Fatalf("MemBytes = %d after corrupt eviction, want 0", s.MemBytes())
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt / 1 evicted", st)
	}
	// Both layers dropped it: the next typed get is a clean miss.
	if _, ok, err := s.GetDeps("poisoned"); ok || err != nil {
		t.Fatalf("GetDeps after eviction = ok=%v err=%v, want clean miss", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cdg-poisoned.wsab")); !os.IsNotExist(err) {
		t.Fatalf("disk blob still present after corrupt eviction (stat err = %v)", err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	for i := 0; i < 10; i++ {
		s.Put("cdg", "k", bytes.Repeat([]byte{byte(i)}, 128))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want exactly the artifact", len(entries))
	}
}

func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 1024) // tiny memory budget
	// Each blob is its 700 bytes plus the envelope, so two of them overflow
	// the budget at rest.
	big := incompressible(700)
	s.Put("slice", "old", big)
	s.Put("slice", "new", big)
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatalf("stats = %+v, want evictions under a 1KB budget", st)
	}
	if s.MemBytes() > 1024 {
		t.Fatalf("mem layer holds %d bytes, budget is 1024", s.MemBytes())
	}
	// The evicted artifact is still served — from disk.
	got, ok, err := s.Get("slice", "old")
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatalf("evicted artifact not recovered from disk: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.DiskHits == 0 {
		t.Fatalf("stats = %+v, want a disk hit for the evicted artifact", st)
	}
}

// TestBlobAtRestIsPayloadPlusEnvelope: a blob is kept as given, on disk and
// in the LRU layer alike. Its file and its MemBytes are the payload plus
// the 13-byte envelope, even for a payload a compressor would shrink 30
// times, and a cold store that promotes it from disk accounts the same.
func TestBlobAtRestIsPayloadPlusEnvelope(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	payload := bytes.Repeat([]byte("unnecessary computation "), 4096)
	s.Put("cdg", "big", payload)
	want := int64(len(payload) + 13)
	blob, err := os.ReadFile(filepath.Join(dir, "cdg-big.wsab"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != want || s.MemBytes() != want {
		t.Fatalf("a %d-byte payload is %d bytes on disk and %d in MemBytes, want %d in both",
			len(payload), len(blob), s.MemBytes(), want)
	}
	if string(blob[:4]) != "WSAB" || blob[4] != 3 || !bytes.Equal(blob[5:5+len(payload)], payload) || string(blob[len(blob)-8:len(blob)-4]) != "WSCK" {
		t.Fatalf("disk blob is not magic, version 3, the payload and the trailer: % x ...", blob[:8])
	}
	cold, _ := Open(dir, 0)
	got, ok, err := cold.Get("cdg", "big")
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("cold Get: ok=%v err=%v equal=%v", ok, err, bytes.Equal(got, payload))
	}
	if cold.MemBytes() != want {
		t.Fatalf("promotion put %d bytes in the LRU, want %d", cold.MemBytes(), want)
	}
}

// version2Blob hand-builds the compressed envelope earlier builds wrote:
// magic, version 2, the payload's length as a uvarint, its deflate stream,
// and a valid trailer.
func version2Blob(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("WSAB\x02")
	buf.Write(binary.AppendUvarint(nil, uint64(len(payload))))
	zw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	zw.Write(payload)
	zw.Close()
	out := append(buf.Bytes(), "WSCK"...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(buf.Bytes()))
}

// TestUnsealRefusesMalformedBlobs: every envelope this build did not write
// whole is an ErrCorrupt, including a valid blob of the compressed
// version 2 and one of version 1.
func TestUnsealRefusesMalformedBlobs(t *testing.T) {
	payload := []byte("forward-pass artifact")
	good := seal(payload)
	if got, err := unseal(good); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unseal(seal(p)) = %q, %v", got, err)
	}
	// resealed returns good with its version byte set to v and a trailer
	// that matches, so only the version check can object.
	resealed := func(v byte) []byte {
		body := append([]byte(nil), good[:len(good)-8]...)
		body[4] = v
		out := append(body, "WSCK"...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"short", good[:12]},
		{"bad magic", edit(func(b []byte) { b[0] = 'X' })},
		{"version 1", resealed(1)},
		{"version 2", version2Blob(payload)},
		{"no trailer", good[:len(good)-8]},
		{"payload bit flip", edit(func(b []byte) { b[7] ^= 0x10 })},
	} {
		if got, err := unseal(tc.blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: unseal = %q, %v; want ErrCorrupt", tc.name, got, err)
		}
	}
}

// TestVersion2BlobIsACorruptMiss: a compressed blob an earlier build left
// on disk is never inflated or misread. Get reports it as an ErrCorrupt
// miss, removes the file and counts it (the service's store_corrupt), and
// the next Get is a clean miss, so the artifact is recomputed.
func TestVersion2BlobIsACorruptMiss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result-old.wsab")
	if err := os.WriteFile(path, version2Blob([]byte(`{"criteria":"pixels"}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := Open(dir, 0)
	if got, ok, err := s.Get(KindResult, "old"); ok || got != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a version 2 blob = %q, %v, %v; want an ErrCorrupt miss", got, ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Hits != 0 || s.MemBytes() != 0 {
		t.Fatalf("stats = %+v, MemBytes %d; want 1 corrupt, no hit, nothing cached", st, s.MemBytes())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("version 2 blob still on disk (stat err = %v)", err)
	}
	if _, ok, err := s.Get(KindResult, "old"); ok || err != nil {
		t.Fatalf("Get after removal = %v, %v; want a clean miss", ok, err)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("cdg", "k", []byte("x"))
	if got, ok, _ := s.Get("cdg", "k"); !ok || string(got) != "x" {
		t.Fatalf("memory-only Get = %q, %v", got, ok)
	}
}

func TestNameSanitization(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	// Criteria-derived kinds contain characters that must not escape the
	// store directory or break file names.
	kind := "slice-union(pixels+syscalls)[<42]"
	s.Put(kind, "k/../../evil", []byte("x"))
	if _, ok, err := s.Get(kind, "k/../../evil"); !ok || err != nil {
		t.Fatalf("sanitized Get = %v, %v", ok, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || strings.ContainsAny(entries[0].Name(), "/()[]<>+") {
		t.Fatalf("unexpected store contents: %v", entries)
	}
}

func TestDepsCodecDeterministicRoundTrip(t *testing.T) {
	d := &cdg.Deps{ByPC: map[uint32][]uint32{
		0x10003: {0x10001, 0x10002},
		0x20001: {0x20000},
		0x00005: nil,
	}}
	b1 := EncodeDeps(d)
	b2 := EncodeDeps(d)
	if !bytes.Equal(b1, b2) {
		t.Fatal("EncodeDeps is not deterministic")
	}
	got, err := DecodeDeps(b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ByPC) != len(d.ByPC) {
		t.Fatalf("decoded %d entries, want %d", len(got.ByPC), len(d.ByPC))
	}
	for pc, deps := range d.ByPC {
		gd := got.ByPC[pc]
		if len(gd) != len(deps) {
			t.Fatalf("pc %#x: decoded %v, want %v", pc, gd, deps)
		}
		for i := range deps {
			if gd[i] != deps[i] {
				t.Fatalf("pc %#x: decoded %v, want %v", pc, gd, deps)
			}
		}
	}
	if !bytes.Equal(EncodeDeps(got), b1) {
		t.Fatal("re-encoding the decoded deps changed the bytes")
	}
	if _, err := DecodeDeps(b1[:len(b1)/2]); err == nil {
		t.Fatal("decoding a truncated deps artifact succeeded")
	}
}

// TestResultCodecRoundTrip: EncodeResult has no decoder (slice digests
// hash its bytes), so what it must be is deterministic.
func TestResultCodecRoundTrip(t *testing.T) {
	in := &slicer.Result{
		Criteria:      "pixels",
		Total:         130,
		SliceCount:    57,
		PendingLeft:   2,
		InSlice:       slicer.Bitset{0xDEADBEEF, 0x0102030405060708, 0x3},
		ByThread:      map[uint8]int{0: 100, 3: 30},
		SliceByThread: map[uint8]int{0: 50, 3: 7},
		ByFunc:        map[trace.FuncID]int{1: 60, 9: 70},
		SliceByFunc:   map[trace.FuncID]int{1: 20, 9: 37},
		Progress: []slicer.ProgressPoint{
			{Processed: 65, Sliced: 30, MainProcessed: 50, MainSliced: 25},
			{Processed: 130, Sliced: 57, MainProcessed: 100, MainSliced: 50},
		},
	}
	if !bytes.Equal(EncodeResult(in), EncodeResult(in)) {
		t.Fatal("EncodeResult is not deterministic")
	}
}

func TestSliceVariantFingerprintsOptions(t *testing.T) {
	a := SliceVariant("pixels", slicer.Options{ProgressPoints: 160})
	b := SliceVariant("pixels", slicer.Options{ProgressPoints: 100})
	c := SliceVariant("pixels", slicer.Options{ProgressPoints: 160, NoControlDeps: true})
	d := SliceVariant("syscalls", slicer.Options{ProgressPoints: 160})
	if a == b || a == c || a == d || b == c {
		t.Fatalf("variants collide: %q %q %q %q", a, b, c, d)
	}
}
