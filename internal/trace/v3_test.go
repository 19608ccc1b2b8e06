package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"webslice/internal/isa"
	"webslice/internal/vmem"
)

// encodeSampleV3 returns the version-3 encoding of the shared sample trace.
func encodeSampleV3(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace(t).WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// multiBlockTrace builds a trace big enough to span several 64-record blocks
// (including a partial final block) with interleaved threads, so the
// per-block delta-state reset is actually exercised.
func multiBlockTrace(t *testing.T, n int) *Trace {
	t.Helper()
	tr := New()
	f1, err := tr.AddFunc("v8::Run", "v8")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := tr.AddFunc("blink::Paint", "blink/paint")
	if err != nil {
		t.Fatal(err)
	}
	tr.Threads = append(tr.Threads, ThreadInfo{0, "CrRendererMain"}, ThreadInfo{1, "Compositor"}, ThreadInfo{7, "IOThread"})
	tids := []uint8{0, 0, 1, 7}
	fns := []FuncID{f1, f2}
	for i := 0; i < n; i++ {
		tid := tids[(i/17)%len(tids)] // runs of ~17 per thread
		r := Rec{
			PC:   MakePC(fns[(i/9)%2], uint16(i%300)),
			Kind: isa.Kind(i % 10),
			TID:  tid,
			Dst:  isa.Reg(i % 31),
			Src1: isa.Reg((i * 3) % 29),
			Src2: isa.Reg((i * 7) % 5),
			Addr: vmem.Addr(0x1000 + uint32(i)*4),
			Aux:  uint32(i % 13),
			Size: uint16([]int{0, 4, 4, 4, 8}[i%5]),
		}
		tr.Recs = append(tr.Recs, r)
	}
	// Side tables at known kinds so Validate-style consumers stay happy.
	for i := 0; i < n; i++ {
		switch tr.Recs[i].Kind {
		case isa.KindSyscall:
			if len(tr.Sys) < 5 {
				tr.Sys[i] = &SysEffect{Num: isa.SysWrite, Writes: []vmem.Range{{Addr: 0x2000, Size: 8}}}
			}
		case isa.KindMarker:
			if len(tr.Marks) < 3 {
				tr.Marks[i] = &Mark{ID: uint32(len(tr.Marks) + 1), Kind: isa.MarkPixels, Buf: vmem.Range{Addr: 0x4000_0000, Size: 64}}
			}
		}
	}
	tr.Clock = []ClockPoint{{0, 0}, {n / 2, uint64(n) * 3}}
	return tr
}

func tracesEqual(t *testing.T, got, want *Trace) {
	t.Helper()
	if !reflect.DeepEqual(got.Recs, want.Recs) {
		t.Fatalf("records differ: %d vs %d recs", len(got.Recs), len(want.Recs))
	}
	if !reflect.DeepEqual(got.Funcs, want.Funcs) {
		t.Error("symbols differ")
	}
	if !reflect.DeepEqual(got.Threads, want.Threads) {
		t.Error("threads differ")
	}
	if !reflect.DeepEqual(got.Sys, want.Sys) {
		t.Error("syscall side tables differ")
	}
	if !reflect.DeepEqual(got.Marks, want.Marks) {
		t.Error("marker side tables differ")
	}
	if !reflect.DeepEqual(got.Clock, want.Clock) {
		t.Error("clock differs")
	}
}

func TestV3RoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	got, err := readV3(encodeSampleV3(t))
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, got, tr)
}

// atEachGOMAXPROCS calls f with runtime.GOMAXPROCS set to each of procs in
// turn, and restores the old setting afterwards.
func atEachGOMAXPROCS(procs []int, f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

func TestV3RoundTripMultiBlock(t *testing.T) {
	// 64-record blocks, 80 full blocks plus a 23-record final block: about
	// 14 KB, so above one GOMAXPROCS the blocks decode on several workers.
	const full = 80
	tr := multiBlockTrace(t, 64*full+23)
	var buf bytes.Buffer
	if err := tr.WriteV3Blocks(&buf, 64); err != nil {
		t.Fatal(err)
	}
	br, err := OpenV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if br.NumRecs() != tr.Len() {
		t.Fatalf("NumRecs = %d, want %d", br.NumRecs(), tr.Len())
	}
	want := make([]int, full+1)
	for i := range want {
		want[i] = 64
	}
	want[full] = 23
	if !reflect.DeepEqual(blockCounts(br), want) {
		t.Fatalf("block record counts = %v, want %v", blockCounts(br), want)
	}
	atEachGOMAXPROCS([]int{1, 2, 16}, func(procs int) {
		if w := decodeWorkers(len(br.blocks), buf.Len()); (w > 1) != (procs > 1) {
			t.Fatalf("GOMAXPROCS %d decodes %d bytes on %d workers", procs, buf.Len(), w)
		}
		got, err := br.ReadAll()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		tracesEqual(t, got, tr)
	})
}

func TestV3EmptyTrace(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	if err := tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	br, err := OpenV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if br.NumRecs() != 0 || len(br.blocks) != 0 {
		t.Fatalf("empty trace has %d recs in %d blocks", br.NumRecs(), len(br.blocks))
	}
	got, err := br.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Recs) != 0 || len(got.Funcs) != 1 {
		t.Errorf("empty round trip: %d recs, %d funcs", len(got.Recs), len(got.Funcs))
	}
}

// blockCounts lists the record count the index declares for each block.
func blockCounts(br *BlockReader) []int {
	var out []int
	for _, b := range br.blocks {
		out = append(out, b.count)
	}
	return out
}

func TestV3BlockBoundsAndShell(t *testing.T) {
	tr := multiBlockTrace(t, 64*2+10)
	var buf bytes.Buffer
	if err := tr.WriteV3Blocks(&buf, 64); err != nil {
		t.Fatal(err)
	}
	br, err := OpenV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{64, 64, 10}; !reflect.DeepEqual(blockCounts(br), want) {
		t.Errorf("block record counts = %v, want %v", blockCounts(br), want)
	}
	if br.tables.Recs != nil {
		t.Error("opening must not materialize records")
	}
	if !reflect.DeepEqual(br.tables.Funcs, tr.Funcs) || !reflect.DeepEqual(br.tables.Sys, tr.Sys) || !reflect.DeepEqual(br.tables.Marks, tr.Marks) {
		t.Error("opened side tables differ from the source trace")
	}
}

func TestV3DecodeBlockReusesBuffer(t *testing.T) {
	tr := multiBlockTrace(t, 64*3)
	var buf bytes.Buffer
	if err := tr.WriteV3Blocks(&buf, 64); err != nil {
		t.Fatal(err)
	}
	br, err := OpenV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	in := new(inflater)
	dst := make([]Rec, 0, 64)
	base := &dst[:1][0]
	for i, lo := 0, 0; i < len(br.blocks); i++ {
		out, err := br.decodeBlock(i, in, dst)
		if err != nil {
			t.Fatal(err)
		}
		if &out[0] != base {
			t.Fatalf("block %d: decodeBlock reallocated despite sufficient capacity", i)
		}
		hi := lo + br.blocks[i].count
		if !reflect.DeepEqual(out, tr.Recs[lo:hi]) {
			t.Fatalf("block %d decodes wrong records", i)
		}
		dst, lo = out[:0], hi
	}
}

// v2Header is the start of a version-2 trace, the flat encoding this
// package no longer reads or writes.
var v2Header = []byte("WSLT\x02\x03\x00")

func TestFormatVersionSniff(t *testing.T) {
	if v := FormatVersion(v2Header); v != 2 {
		t.Errorf("v2 sniffed as %d", v)
	}
	if v := FormatVersion(encodeSampleV3(t)); v != 3 {
		t.Errorf("v3 sniffed as %d", v)
	}
	if v := FormatVersion([]byte("not a trace")); v != 0 {
		t.Errorf("garbage sniffed as %d", v)
	}
	if v := FormatVersion(nil); v != 0 {
		t.Errorf("nil sniffed as %d", v)
	}
}

func TestV3BlockRecsRounding(t *testing.T) {
	tr := multiBlockTrace(t, 100)
	var buf bytes.Buffer
	// 70 is not a multiple of 64: the writer must round up to 128.
	if err := tr.WriteV3Blocks(&buf, 70); err != nil {
		t.Fatal(err)
	}
	br, err := OpenV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	blockRecs, _ := binary.Uvarint(buf.Bytes()[len(magic)+1:]) // after the one-byte version
	if blockRecs != 128 {
		t.Errorf("header block size = %d, want 128 (rounded up to a multiple of 64)", blockRecs)
	}
	if want := []int{100}; !reflect.DeepEqual(blockCounts(br), want) {
		t.Errorf("block record counts = %v, want %v", blockCounts(br), want)
	}
}

// openV3NeverPanics opens and fully decodes data, converting a panic into a
// test failure. Corrupt input must come back as an error, not a crash.
func openV3NeverPanics(t *testing.T, data []byte, label string) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: v3 decode panicked: %v", label, r)
		}
	}()
	_, err := readV3(data)
	return err
}

func TestV3EveryTruncatedPrefixErrors(t *testing.T) {
	enc := encodeSampleV3(t)
	for n := 0; n < len(enc); n++ {
		err := openV3NeverPanics(t, enc[:n], "prefix")
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(enc))
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("truncation to %d: error is %T, want *DecodeError: %v", n, err, err)
		}
	}
}

// TestV3EveryBitFlipErrors corrupts every bit of a v3 encoding. Each section
// carries its own CRC32 and the framing is fully accounted (block offsets
// come from the checksummed index), so every single-bit flip must surface as
// a typed decode error — block headers, column payloads, footer, index, and
// tail alike.
func TestV3EveryBitFlipErrors(t *testing.T) {
	enc := encodeSampleV3(t)
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(enc)
			mut[i] ^= 1 << bit
			err := openV3NeverPanics(t, mut, "bitflip")
			if err == nil {
				t.Fatalf("flipping byte %d bit %d (of %d bytes) decoded without error", i, bit, len(enc))
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("flipping byte %d bit %d: error is %T, want *DecodeError: %v", i, bit, err, err)
			}
			if de.Section == "" {
				t.Fatalf("flipping byte %d bit %d: decode error has no section", i, bit)
			}
		}
	}
}

func TestV3EveryBitFlipErrorsMultiBlock(t *testing.T) {
	// The same sweep over a multi-block file so per-block CRCs, the block
	// index, and inter-block framing all get exercised. Multi-block files
	// are larger, so sample every 3rd byte to keep the sweep fast while
	// still covering every section (offsets 0,3,6,... hit all regions).
	enc := encodeMultiBlock(t, 64*3+11)
	for i := 0; i < len(enc); i += 3 {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(enc)
			mut[i] ^= 1 << bit
			if err := openV3NeverPanics(t, mut, "bitflip-multi"); err == nil {
				t.Fatalf("flipping byte %d bit %d (of %d bytes) decoded without error", i, bit, len(enc))
			}
		}
	}

	// A file over 4 KiB, whose blocks two workers share at GOMAXPROCS 16.
	// Every 3rd byte gets one flipped bit, cycling through the bit
	// positions, and each flip must fail with the same error at 16 as at 1.
	big := encodeMultiBlock(t, 64*22+11)
	var serial []string // each flip's error at GOMAXPROCS 1, in sweep order
	atEachGOMAXPROCS([]int{1, 16}, func(procs int) {
		if w := decodeWorkers(23, len(big)); (w > 1) != (procs > 1) {
			t.Fatalf("GOMAXPROCS %d decodes %d bytes on %d workers", procs, len(big), w)
		}
		dirty := dirtyRecs(len(big)) // every flip's decode leaves it dirtier

		for i := 0; i < len(big); i += 3 {
			mut := bytes.Clone(big)
			mut[i] ^= 1 << (i / 3 % 8)
			err := openV3NeverPanics(t, mut, "bitflip-workers")
			switch k := i / 3; {
			case err == nil:
				t.Fatalf("flipping byte %d (of %d bytes) decoded without error", i, len(big))
			case procs == 1:
				serial = append(serial, err.Error())
			case err.Error() != serial[k]:
				t.Fatalf("flipping byte %d: error at GOMAXPROCS %d is %q, at 1 %q", i, procs, err, serial[k])
			}
			// A recycled array that holds another trace changes nothing.
			if _, into := readV3Into(mut, dirty); into == nil || into.Error() != err.Error() {
				t.Fatalf("flipping byte %d: ReadAllInto a dirty array at GOMAXPROCS %d gives %v, ReadAll %q", i, procs, into, err)
			}
		}
	})
}

// readV3Into is readV3 decoding into recs.
func readV3Into(data []byte, recs []Rec) (*Trace, error) {
	br, err := OpenV3(data)
	if err != nil {
		return nil, err
	}
	return br.ReadAllInto(recs)
}

// dirtyRecs returns n records with every field set, standing in for a
// recycled array that holds another trace's records.
func dirtyRecs(n int) []Rec {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{PC: ^uint32(i), Dst: 0x7fffffff, Src1: 3, Src2: 5, Addr: 0xdeadbeef,
			Aux: 0xffff, Size: 0xffff, Kind: 0xff, TID: 0xff}
	}
	return recs
}

// TestReadAllIntoRecyclesADirtyArray decodes into a larger array that holds
// another trace's records. The records must be ReadAll's, in that array,
// cut to the reservation a new array gets: the same capacity, so a trace
// with more records than bytes still appends past it as ReadAll does.
func TestReadAllIntoRecyclesADirtyArray(t *testing.T) {
	var dense bytes.Buffer // 200 blocks of 64 identical records: more records than bytes
	flat := New()
	flat.Recs = make([]Rec, 200*64)
	if err := flat.WriteV3Blocks(&dense, 64); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{
		"sample":      encodeSampleV3(t),
		"multi-block": encodeMultiBlock(t, 64*22+11),
		"dense":       dense.Bytes(),
	}
	atEachGOMAXPROCS([]int{1, 16}, func(procs int) {
		for name, data := range inputs {
			want, err := readV3(data)
			if err != nil {
				t.Fatal(err)
			}
			buf := dirtyRecs(2*len(want.Recs) + 100)
			got, err := readV3Into(data, buf)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if !reflect.DeepEqual(got.Recs, want.Recs) {
				t.Fatalf("%s at GOMAXPROCS %d: records from a dirty array differ from ReadAll's", name, procs)
			}
			if cap(got.Recs) != cap(want.Recs) {
				t.Fatalf("%s at GOMAXPROCS %d: capacity %d, ReadAll's %d", name, procs, cap(got.Recs), cap(want.Recs))
			}
			fits := len(want.Recs) <= len(data)
			if aliased := &got.Recs[0] == &buf[0]; aliased != fits {
				t.Fatalf("%s at GOMAXPROCS %d: decoded into the given array: %t, want %t", name, procs, aliased, fits)
			}
		}
	})
	// An array too small for the reservation is left alone.
	data := inputs["multi-block"]
	small := dirtyRecs(10)
	got, err := readV3Into(data, small)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := readV3(data); !reflect.DeepEqual(got.Recs, want.Recs) || small[0] != dirtyRecs(1)[0] {
		t.Fatal("decoding with an array below the reservation did not use a new one")
	}
}

// encodeMultiBlock returns the v3 encoding, in 64-record blocks, of
// multiBlockTrace(t, n).
func encodeMultiBlock(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := multiBlockTrace(t, n).WriteV3Blocks(&buf, 64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV3ReadAllReportsLowestFailingBlock builds a trace whose blocks 1 and
// 4 both fail at the very end of their decode: each passes its checksum,
// inflates and fills its records, then has trailing bytes, one in block 1
// and two in block 4. At GOMAXPROCS 16 both blocks are in flight at once,
// so either can fail first; at every GOMAXPROCS the error must be block
// 1's, the one a serial decode stops at.
func TestV3ReadAllReportsLowestFailingBlock(t *testing.T) {
	const blockRecs, blocks = 2048, 6
	// Pseudo-random records, so the input holds more bytes than records
	// and every block fits the record reservation.
	recs := make([]Rec, blockRecs*blocks)
	x := uint32(1)
	for i := range recs {
		x = x*1664525 + 1013904223
		recs[i] = Rec{PC: x, Dst: isa.Reg(x % 97), Addr: vmem.Addr(x >> 3), Aux: x >> 7}
	}
	payloads := make([][]byte, blocks)
	for i := range payloads {
		cols := appendColumns(nil, recs[i*blockRecs:(i+1)*blockRecs])
		switch i {
		case 1:
			cols = append(cols, 0)
		case 4:
			cols = append(cols, 0, 0)
		}
		var comp bytes.Buffer
		fw, _ := flate.NewWriter(&comp, flate.DefaultCompression)
		fw.Write(cols)
		fw.Close()
		payloads[i] = comp.Bytes()
	}
	data := handBuiltV3(blockRecs, payloads...)
	const want = "1 trailing bytes after the size column"
	atEachGOMAXPROCS([]int{1, 2, 4, 16}, func(procs int) {
		if w := decodeWorkers(blocks, len(data)); w != min(procs, blocks) {
			t.Fatalf("GOMAXPROCS %d decodes %d blocks on %d workers", procs, blocks, w)
		}
		for rep := 0; rep < 10; rep++ {
			if _, err := readV3(data); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("GOMAXPROCS %d: blocks 1 and 4 corrupt, got %v, want block 1's error (%s)", procs, err, want)
			}
		}
	})
}

func TestV3ReadViaSniffRejectsCorruption(t *testing.T) {
	// A corrupt body that still sniffs as v3 fails to decode.
	enc := encodeSampleV3(t)
	mut := bytes.Clone(enc)
	mut[len(mut)/2] ^= 0x10
	if FormatVersion(mut) != 3 {
		t.Fatal("mid-file corruption changed the sniffed version")
	}
	if err := openV3NeverPanics(t, mut, "sniffed-corrupt"); err == nil {
		t.Fatal("corrupt v3 decoded")
	}
}

func TestV3OpenRejectsV2(t *testing.T) {
	// A v2 file, padded past the minimal v3 frame so the version check is
	// what refuses it.
	v2 := append(bytes.Clone(v2Header), make([]byte, 32)...)
	_, err := OpenV3(v2)
	var de *DecodeError
	if !errors.As(err, &de) || !strings.Contains(de.Msg, "format version 2") {
		t.Fatalf("OpenV3 of a v2 file = %v, want a decode error naming version 2", err)
	}
}
