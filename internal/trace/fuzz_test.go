package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

// readV3 decodes a whole v3 encoding, as cmd/tracedump does.
func readV3(data []byte) (*Trace, error) {
	br, err := OpenV3(data)
	if err != nil {
		return nil, err
	}
	return br.ReadAll()
}

// withIndex returns enc with its block index replaced by idx, checksummed so
// the decoder reaches idx's contents. The index offset does not move, so
// the tail stays valid.
func withIndex(enc, idx []byte) []byte {
	tail := enc[len(enc)-v3TailSize:]
	indexOff := binary.LittleEndian.Uint64(tail)
	out := append([]byte(nil), enc[:indexOff]...)
	out = append(out, idx...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
	return append(out, tail...)
}

// hugeIndexV3 hand-builds a small v3 file (header, eight empty block
// payloads, empty footer, index, tail, every checksum valid) whose index
// declares eight blocks of maxBlockRecs records. OpenV3 accepts it, because
// block payloads are verified only when decoded; block 0 then fails to
// inflate.
func hugeIndexV3() []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.AppendUvarint(out, v3Version)
	out = binary.AppendUvarint(out, maxBlockRecs)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	var offs []int
	for i := 0; i < 8; i++ {
		offs = append(offs, len(out))
		out = append(out, v3TagBlock, 0)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(nil))
	}
	footOff := len(out)
	foot := appendFooter(nil, nil, nil, nil, nil, nil)
	out = append(out, v3TagFooter, byte(len(foot)))
	out = append(out, foot...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(foot))
	indexOff := len(out)
	idx := binary.AppendUvarint(nil, uint64(footOff))
	idx = binary.AppendUvarint(idx, uint64(len(offs)))
	prev := 0
	for _, off := range offs {
		idx = binary.AppendUvarint(idx, uint64(off-prev))
		idx = binary.AppendUvarint(idx, maxBlockRecs)
		prev = off
	}
	out = append(out, idx...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
	var tail [v3TailSize]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(indexOff))
	binary.LittleEndian.PutUint32(tail[8:12], crc32.ChecksumIEEE(tail[:8]))
	copy(tail[12:], v3TailMagic[:])
	return append(out, tail[:]...)
}

// allocBytes returns how many heap bytes f allocated.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadAllAllocatesOnlyForDecodedBlocks: ReadAll must size its record
// slice by what the input can hold, not by the counts the index declares.
// A 125-byte body declaring 8 Mi records must fail with a typed error
// without allocating them first.
func TestReadAllAllocatesOnlyForDecodedBlocks(t *testing.T) {
	data := hugeIndexV3()
	br, err := OpenV3(data)
	if err != nil {
		t.Fatalf("OpenV3 of the crafted body: %v", err)
	}
	if br.NumRecs() != 8*maxBlockRecs {
		t.Fatalf("crafted index declares %d records, want %d", br.NumRecs(), 8*maxBlockRecs)
	}
	var rerr error
	alloc := allocBytes(func() { _, rerr = br.ReadAll() })
	var de *DecodeError
	if !errors.As(rerr, &de) {
		t.Fatalf("ReadAll error is %T, want *DecodeError: %v", rerr, rerr)
	}
	if alloc >= 4<<20 {
		t.Fatalf("ReadAll of a %d-byte body allocated %d bytes before failing", len(data), alloc)
	}
}

func TestReadCorruptCountsErrorDescriptively(t *testing.T) {
	// An index whose block count is far beyond its bytes: the bounds check
	// must reject it, naming the section, before allocating block metadata.
	enc := encodeSampleV3(t)
	footOff, _ := binary.Uvarint(enc[binary.LittleEndian.Uint64(enc[len(enc)-v3TailSize:]):])
	idx := binary.AppendUvarint(nil, footOff)
	idx = binary.AppendUvarint(idx, 1<<34)
	_, err := readV3(withIndex(enc, idx))
	if err == nil {
		t.Fatal("absurd block count decoded without error")
	}
	var de *DecodeError
	if !errors.As(err, &de) || de.Section != "v3 index" || !strings.Contains(de.Msg, "impossible") {
		t.Errorf("error should name the index and the impossible count: %v", err)
	}
}

func TestReadRejectsOutOfRangeSideTables(t *testing.T) {
	// A footer whose syscall table points past the (empty) record stream.
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf, 0)
	if err := bw.Finish(nil, nil, map[int]*SysEffect{9: {Num: 1}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, err := readV3(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "syscall") {
		t.Errorf("out-of-range syscall index must error with the section name, got: %v", err)
	}
}
