package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// incompressible returns n bytes of xorshift noise — deflate can't shrink
// it, so its sealed size tracks its logical size.
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

func TestBlobCompressedAtRest(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	payload := bytes.Repeat([]byte("unnecessary computation "), 4096) // ~96KB, highly compressible
	s.Put("cdg", "big", payload)
	fi, err := os.Stat(filepath.Join(dir, "cdg-big.wsab"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(len(payload))/4 {
		t.Fatalf("disk blob is %d bytes for a %d-byte compressible payload — not compressed at rest", fi.Size(), len(payload))
	}
	if s.MemBytes() != fi.Size() {
		t.Fatalf("MemBytes = %d, want the on-disk size %d", s.MemBytes(), fi.Size())
	}
	got, ok, err := s.Get("cdg", "big")
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after compression: ok=%v err=%v equal=%v", ok, err, bytes.Equal(got, payload))
	}
	// Cold reopen: the disk blob inflates back too.
	cold, _ := Open(dir, 0)
	got, ok, err = cold.Get("cdg", "big")
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("cold Get after compression: ok=%v err=%v equal=%v", ok, err, bytes.Equal(got, payload))
	}
	if cold.MemBytes() != fi.Size() {
		t.Fatalf("promotion put %d bytes in the LRU, want the sealed size %d", cold.MemBytes(), fi.Size())
	}
}

// TestEvictionUsesCompressedSizes is the regression test for the byte
// gauge: when compressed and logical sizes diverge, both the budget check
// and the eviction accounting must use the sealed sizes. A 32KB-logical
// artifact that seals to a few dozen bytes must NOT push anything out of a
// 3KB budget, and evictions must free exactly the sealed bytes.
func TestEvictionUsesCompressedSizes(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 3<<10)
	zeros := make([]byte, 32<<10) // logical 32KB >> budget; seals tiny
	rand1 := incompressible(2 << 10)
	s.Put("slice", "zeros", zeros)
	if st := s.Stats(); st.Evicted != 0 {
		t.Fatalf("putting a 32KB-logical/tiny-sealed artifact evicted %d entries under a 3KB budget", st.Evicted)
	}
	sealedZeros := s.MemBytes()
	if sealedZeros >= 1<<10 {
		t.Fatalf("sealed size of zeros is %d bytes — gauge appears to track logical size", sealedZeros)
	}
	s.Put("slice", "rand1", rand1)
	// Under logical accounting (32KB + 2KB > 3KB) zeros would have been
	// evicted here. Under at-rest accounting both fit.
	if st := s.Stats(); st.Evicted != 0 {
		t.Fatalf("stats = %+v: eviction fired even though both sealed blobs fit the budget", st)
	}
	if _, ok, err := s.Get("slice", "zeros"); !ok || err != nil {
		t.Fatalf("zeros fell out of memory: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.MemHits != 1 {
		t.Fatalf("stats = %+v, want zeros served from the LRU layer", st)
	}

	// A second incompressible 2KB artifact overflows the budget. The Get
	// above made zeros most-recent, so eviction (from the LRU back) must
	// drop rand1 — and afterwards the gauge must equal the surviving
	// sealed sizes exactly.
	s.Put("slice", "rand2", incompressible(2<<10))
	if st := s.Stats(); st.Evicted == 0 {
		t.Fatalf("stats = %+v, want an eviction after overflowing the budget", st)
	}
	if _, ok, _ := s.Get("slice", "zeros"); !ok {
		t.Fatal("eviction dropped the most-recently-used tiny artifact instead of the LRU back")
	}
	if st := s.Stats(); st.MemHits != 2 {
		t.Fatalf("stats = %+v, want zeros still in memory after the eviction round", st)
	}
	if s.MemBytes() > 3<<10 {
		t.Fatalf("MemBytes = %d, over the 3KB budget", s.MemBytes())
	}
	// rand1 was evicted but survives on disk.
	got, ok, err := s.Get("slice", "rand1")
	if err != nil || !ok || !bytes.Equal(got, rand1) {
		t.Fatalf("evicted rand1 not recovered from disk: ok=%v err=%v", ok, err)
	}
}

func TestUnsealRejectsLengthLies(t *testing.T) {
	payload := []byte("short")
	blob := seal(payload)
	// Rewrite the logical-length varint to lie (5 -> 4) and fix up the CRC
	// so only the length check can object.
	body := append([]byte(nil), blob[:len(blob)-trailerSize]...)
	if body[headerSize] != 5 {
		t.Fatalf("test assumes a one-byte varint of 5, got %d", body[headerSize])
	}
	body[headerSize] = 4
	crc := crc32.ChecksumIEEE(body)
	forged := append(body, trailerMagic[:]...)
	forged = binary.LittleEndian.AppendUint32(forged, crc)
	if _, err := unseal(forged); err == nil {
		t.Fatal("unseal accepted a blob whose deflate stream outruns its declared length")
	}
	// And the other direction: declared length longer than the stream.
	body[headerSize] = 6
	crc = crc32.ChecksumIEEE(body)
	forged = append(body[:len(body):len(body)], trailerMagic[:]...)
	forged = binary.LittleEndian.AppendUint32(forged, crc)
	if _, err := unseal(forged); err == nil {
		t.Fatal("unseal accepted a blob whose declared length outruns its deflate stream")
	}
}

// TestPooledSealIsByteIdentical: a recycled compressor must seal exactly
// the blob a new one does, whatever it compressed before. Each payload is
// sealed after payloads of other sizes and kinds, and compared with the
// envelope built around a new flate.Writer.
func TestPooledSealIsByteIdentical(t *testing.T) {
	fresh := func(payload []byte) []byte {
		var buf bytes.Buffer
		buf.Write(blobMagic[:])
		buf.WriteByte(blobVersion)
		buf.Write(binary.AppendUvarint(nil, uint64(len(payload))))
		zw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
		zw.Write(payload)
		zw.Close()
		out := append(buf.Bytes(), trailerMagic[:]...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(buf.Bytes()))
	}
	payloads := [][]byte{
		incompressible(300 << 10),
		{},
		bytes.Repeat([]byte("unnecessary computation "), 4096),
		incompressible(17),
		bytes.Repeat([]byte{0}, 1<<20),
	}
	for round := 0; round < 3; round++ {
		for i, p := range payloads {
			blob := seal(p)
			if !bytes.Equal(blob, fresh(p)) {
				t.Fatalf("round %d, payload %d (%d bytes): pooled seal differs from a new writer's", round, i, len(p))
			}
			got, err := unseal(blob)
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("round %d, payload %d: unseal = %d bytes, %v", round, i, len(got), err)
			}
		}
	}
}
