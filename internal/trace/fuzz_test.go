package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"webslice/internal/isa"
	"webslice/internal/vmem"
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
	return handBuiltV3(maxBlockRecs, make([][]byte, 8)...)
}

// deflateBombV3 hand-builds a v3 file of 64-record blocks whose one block
// holds 64 MiB of zeros, deflated to about 64 KB. A legal 64-record block
// inflates to at most maxColumnBytes(64) bytes.
func deflateBombV3() []byte {
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestCompression)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		fw.Write(zeros)
	}
	fw.Close()
	return handBuiltV3(64, comp.Bytes())
}

// handBuiltV3 frames payloads as the blocks of a v3 file with blockRecs
// records per block, each block declaring blockRecs records, followed by
// an empty footer, the index and the tail. Every checksum is valid, so
// OpenV3 accepts the file; the payloads are inflated only by ReadAll.
func handBuiltV3(blockRecs uint64, payloads ...[]byte) []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.AppendUvarint(out, v3Version)
	out = binary.AppendUvarint(out, blockRecs)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	var offs []int
	for _, p := range payloads {
		offs = append(offs, len(out))
		out = append(out, v3TagBlock)
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	}
	footOff := len(out)
	foot := appendFooter(nil, nil, nil, nil, nil, nil)
	out = append(out, v3TagFooter, byte(len(foot)))
	out = append(out, foot...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(foot))
	idx := binary.AppendUvarint(nil, uint64(footOff))
	idx = binary.AppendUvarint(idx, uint64(len(offs)))
	prev := 0
	for _, off := range offs {
		idx = binary.AppendUvarint(idx, uint64(off-prev))
		idx = binary.AppendUvarint(idx, blockRecs)
		prev = off
	}
	return appendIndexAndTail(out, idx)
}

// appendIndexAndTail appends the index idx, its checksum and a valid tail
// pointing at it.
func appendIndexAndTail(out, idx []byte) []byte {
	indexOff := len(out)
	out = append(out, idx...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
	var tail [v3TailSize]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(indexOff))
	binary.LittleEndian.PutUint32(tail[8:12], crc32.ChecksumIEEE(tail[:8]))
	copy(tail[12:], v3TailMagic[:])
	return append(out, tail[:]...)
}

// blockLengthNearFooterV3 hand-builds a v3 file whose one block declares a
// 2^40-byte payload in a length field that ends one byte before the
// footer, so fewer bytes than a block checksum lie between them. The
// header, index and tail are valid, so OpenV3 reaches the block guard.
func blockLengthNearFooterV3() []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.AppendUvarint(out, v3Version)
	out = binary.AppendUvarint(out, 64)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	blocksStart := len(out)
	out = append(out, v3TagBlock)
	out = binary.AppendUvarint(out, 1<<40)
	footOff := len(out) + 1
	out = append(out, 0, v3TagFooter, 0, 0, 0, 0, 0)
	idx := binary.AppendUvarint(nil, uint64(footOff))
	idx = binary.AppendUvarint(idx, 1)
	idx = binary.AppendUvarint(idx, uint64(blocksStart))
	idx = binary.AppendUvarint(idx, 64)
	return appendIndexAndTail(out, idx)
}

// footerLengthNearIndexV3 is a 125-byte input the fuzzer found: its
// footer's length field ends three bytes before the index, so fewer bytes
// than a footer checksum lie between them, and it declares a length past
// the end of the input.
const footerLengthNearIndexV3 = "WSLT\x03\x80\x80@5\x18*#\x01\x000000\x01\x000000\x01\x000000\x01\x000000\x01\x000000\x01\x000000\x01\x000000\x01\x000000\x02\xe6\xff\xff\xff\xff\xff0000<\b\f\x80\x80@\x06\x80\x80@\x06\x80\x80@\x06\x80\x80@\x06\x80\x80@\x06\x80\x80@\x06\x80\x80@\x06\x80\x80@\xa9i\xf8xG\x00\x00\x00\x00\x00\x00\x00\x9d\x14zFWS3K"

// TestV3LengthFieldNearNextSectionErrors: a block or footer length field
// that ends less than a checksum's width before the next section leaves a
// negative number of bytes for the payload. OpenV3 must refuse the length
// with a *DecodeError naming the section, not wrap the negative room into
// a huge bound and slice past the input.
func TestV3LengthFieldNearNextSectionErrors(t *testing.T) {
	for _, tc := range []struct {
		name, section string
		data          []byte
	}{
		{"block", "v3 block", blockLengthNearFooterV3()},
		{"footer", "v3 footer", []byte(footerLengthNearIndexV3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var de *DecodeError
			if _, err := OpenV3(tc.data); !errors.As(err, &de) || de.Section != tc.section || !strings.Contains(de.Msg, "exceeds") {
				t.Fatalf("OpenV3 = %v, want a *DecodeError in %q for a length that exceeds its room", err, tc.section)
			}
		})
	}
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

// TestReadAllWorkersStayInBudget: every worker past the first costs an
// inflater, so the worker count must be bounded by the input, not only by
// GOMAXPROCS and the block count. The body here holds 200 blocks of 64
// identical records in about 4.5 KB, so more records than bytes: at
// GOMAXPROCS 16, one worker per block that fits the reservation would
// allocate past decodeBudget.
func TestReadAllWorkersStayInBudget(t *testing.T) {
	tr := New()
	tr.Recs = make([]Rec, 200*64)
	var buf bytes.Buffer
	if err := tr.WriteV3Blocks(&buf, 64); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	atEachGOMAXPROCS([]int{16}, func(int) {
		var (
			got        *Trace
			oerr, rerr error
		)
		alloc := allocBytes(func() {
			var br *BlockReader
			if br, oerr = OpenV3(data); oerr == nil {
				got, rerr = br.ReadAll()
			}
		})
		if oerr != nil || rerr != nil {
			t.Fatalf("decoding: open %v, read %v", oerr, rerr)
		}
		if !reflect.DeepEqual(got.Recs, tr.Recs) {
			t.Fatal("records did not survive the round trip")
		}
		if budget := decodeBudget(len(data), 64); alloc > budget {
			t.Fatalf("decoding %d bytes at GOMAXPROCS 16 allocated %d bytes, budget %d", len(data), alloc, budget)
		}
	})
}

// TestInflateCapIsTheWorstCase: the inflate cap is exactly what the
// widest legal block encodes to, so every trace the writer produces still
// decodes, while a block that inflates past its cap fails with a typed
// error. In the widest block every run has length 1 and every varint is
// at its widest.
func TestInflateCapIsTheWorstCase(t *testing.T) {
	const n = 1 << 14 // the smallest record count whose uvarint takes 3 bytes
	recs := make([]Rec, n)
	for i := range recs {
		// Each thread's PCs and addresses swing between 0 and 2^32-1, so
		// every per-thread delta is a 5-byte zigzag varint.
		var wide uint32
		if i/2%2 == 0 {
			wide = math.MaxUint32
		}
		recs[i] = Rec{
			PC:   wide,
			Dst:  math.MaxUint32,
			Src1: math.MaxUint32,
			Src2: math.MaxUint32,
			Addr: vmem.Addr(wide),
			Aux:  math.MaxUint32,
			Size: math.MaxUint16 - uint16(i%2),
			Kind: isa.Kind(i % 2),
			TID:  uint8(i % 2),
		}
	}
	if got, want := len(appendColumns(nil, recs)), maxColumnBytes(n); got != want {
		t.Fatalf("widest %d-record block encodes to %d bytes, cap is %d", n, got, want)
	}
	tr := New()
	tr.Recs = recs
	var enc bytes.Buffer
	if err := tr.WriteV3Blocks(&enc, n); err != nil {
		t.Fatal(err)
	}
	got, err := readV3(enc.Bytes())
	if err != nil {
		t.Fatalf("widest block fails to decode under its cap: %v", err)
	}
	if !reflect.DeepEqual(got.Recs, recs) {
		t.Fatal("widest block did not survive the round trip")
	}

	var de *DecodeError
	if _, err := readV3(deflateBombV3()); !errors.As(err, &de) || !strings.Contains(de.Msg, "inflates past") {
		t.Fatalf("deflate bomb: got %v, want a DecodeError for inflating past the cap", err)
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
	empty := &Trace{Sys: map[int]*SysEffect{9: {Num: 1}}}
	if err := empty.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := readV3(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "syscall") {
		t.Errorf("out-of-range syscall index must error with the section name, got: %v", err)
	}
}
