package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"webslice/internal/isa"
	"webslice/internal/vmem"
)

// recsFromSeed deterministically expands fuzz bytes into a record stream,
// covering every column's interesting ranges (kind/thread runs, PC deltas in
// both directions, zero and large registers, clustered and scattered
// addresses, repeated sizes).
func recsFromSeed(seed []byte) []Rec {
	recs := make([]Rec, 0, len(seed))
	var pc uint32
	for i, b := range seed {
		pc += uint32(int8(b)) // signed wander, exercises negative deltas
		recs = append(recs, Rec{
			PC:   pc,
			Kind: isa.Kind(b % 11),
			TID:  b % 5,
			Dst:  isa.Reg(uint32(b) << (uint(i) % 24)),
			Src1: isa.Reg(b % 7),
			Src2: isa.Reg(i),
			Addr: vmem.Addr(uint32(i*int(b)) * 16),
			Aux:  uint32(b) * 0x01010101,
			Size: uint16(b) % 4097,
		})
	}
	return recs
}

// FuzzV3RoundTrip: arbitrary record streams survive a v3 encode/decode
// round trip exactly, across block sizes including ones that leave partial
// final blocks.
func FuzzV3RoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(64))
	f.Add([]byte{1, 2, 3}, uint16(64))
	f.Add(bytes.Repeat([]byte{7, 7, 9}, 100), uint16(64))
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F}, uint16(128))
	f.Fuzz(func(t *testing.T, seed []byte, blockRecs uint16) {
		if len(seed) > 4096 {
			seed = seed[:4096]
		}
		tr := New()
		fn, _ := tr.AddFunc("f", "ns")
		_ = fn
		tr.Threads = append(tr.Threads, ThreadInfo{0, "main"})
		tr.Recs = recsFromSeed(seed)
		if len(tr.Recs) > 2 {
			tr.Recs[1].Kind = isa.KindSyscall
			tr.Sys[1] = &SysEffect{Num: isa.SysRead, Reads: []vmem.Range{{Addr: 0x10, Size: 2}}}
			tr.Recs[2].Kind = isa.KindMarker
			tr.Marks[2] = &Mark{ID: 9, Kind: isa.MarkPixels, Buf: vmem.Range{Addr: 0x99, Size: 7}}
			tr.Clock = []ClockPoint{{Index: 0, Cycle: 5}}
		}

		var v3 bytes.Buffer
		if err := tr.WriteV3Blocks(&v3, int(blockRecs)); err != nil {
			t.Fatalf("WriteV3Blocks: %v", err)
		}
		br, err := OpenV3(v3.Bytes())
		if err != nil {
			t.Fatalf("OpenV3 of our own encoding: %v", err)
		}
		got, err := br.ReadAll()
		if err != nil {
			t.Fatalf("ReadAll of our own encoding: %v", err)
		}
		if !reflect.DeepEqual(got.Recs, tr.Recs) && !(len(got.Recs) == 0 && len(tr.Recs) == 0) {
			t.Fatal("records did not survive the v3 round trip")
		}
		if !reflect.DeepEqual(got.Sys, tr.Sys) || !reflect.DeepEqual(got.Marks, tr.Marks) {
			t.Fatal("side tables did not survive the v3 round trip")
		}
	})
}

// decodeBudget is the most OpenV3 plus ReadAll may allocate for an n-byte
// input whose largest block holds blockRecs records: a fixed multiple of n
// (tables, block metadata, and a record slice pre-sized to at most one
// record per input byte), one decoded block with its inflated columns, and
// 1 MiB of fixed overhead such as the decompressor. Declared record counts do
// not appear: they must not drive allocation before blocks decode.
func decodeBudget(n, blockRecs int) uint64 {
	return 1<<20 + 128*uint64(n) + 2*uint64(blockRecs)*uint64(unsafe.Sizeof(Rec{}))
}

// FuzzV3DecodeNeverPanics: arbitrary bytes — including mutated valid
// encodings reached by the fuzzer — must decode to a typed error or a valid
// trace, never a panic, and allocate no more than decodeBudget.
func FuzzV3DecodeNeverPanics(f *testing.F) {
	var empty, small bytes.Buffer
	_ = New().WriteV3(&empty)
	{
		tr := New()
		tr.Recs = recsFromSeed([]byte{1, 2, 3, 4, 5, 6, 7, 8})
		_ = tr.WriteV3Blocks(&small, 64)
	}
	f.Add([]byte{})
	f.Add([]byte("WSLT"))
	f.Add(empty.Bytes())
	f.Add(small.Bytes())
	f.Add(hugeIndexV3())
	f.Add(deflateBombV3())
	f.Add(blockLengthNearFooterV3())
	f.Add([]byte(footerLengthNearIndexV3))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			br         *BlockReader
			oerr, rerr error
		)
		alloc := allocBytes(func() {
			if br, oerr = OpenV3(data); oerr == nil {
				_, rerr = br.ReadAll()
			}
		})
		for _, err := range []error{oerr, rerr} {
			var de *DecodeError
			if err != nil && !errors.As(err, &de) {
				t.Fatalf("decode error is %T, want *DecodeError: %v", err, err)
			}
		}
		blockRecs := 0
		if br != nil {
			for _, b := range br.blocks {
				blockRecs = max(blockRecs, b.count)
			}
		}
		if budget := decodeBudget(len(data), blockRecs); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), alloc, budget)
		}
	})
}
