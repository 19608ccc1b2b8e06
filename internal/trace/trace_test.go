package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"webslice/internal/isa"
	"webslice/internal/vmem"
)

func TestPCPacking(t *testing.T) {
	pc := MakePC(0x1234, 0x5678)
	if FuncOfPC(pc) != 0x1234 {
		t.Errorf("FuncOfPC = %#x", FuncOfPC(pc))
	}
	if OffOfPC(pc) != 0x5678 {
		t.Errorf("OffOfPC = %#x", OffOfPC(pc))
	}
}

func TestPCPackingProperty(t *testing.T) {
	f := func(fn uint16, off uint16) bool {
		pc := MakePC(FuncID(fn), off)
		return FuncOfPC(pc) == FuncID(fn) && OffOfPC(pc) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New()
	f1, err := tr.AddFunc("v8::Compile", "v8")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := tr.AddFunc("blink::Layout", "blink/layout")
	if err != nil {
		t.Fatal(err)
	}
	tr.Threads = append(tr.Threads, ThreadInfo{0, "CrRendererMain"}, ThreadInfo{1, "Compositor"})
	tr.Recs = []Rec{
		{PC: MakePC(f1, 1), Kind: isa.KindConst, Dst: 1, TID: 0},
		{PC: MakePC(f1, 2), Kind: isa.KindStore, Src1: 1, Addr: 0x1000, Size: 4, TID: 0},
		{PC: MakePC(f2, 1), Kind: isa.KindLoad, Dst: 2, Addr: 0x1000, Size: 4, TID: 1},
		{PC: MakePC(f2, 2), Kind: isa.KindSyscall, Dst: 3, Src1: 2, Aux: uint32(isa.SysSendto), TID: 1},
		{PC: MakePC(f2, 3), Kind: isa.KindMarker, Aux: 1, TID: 1},
	}
	tr.Sys[3] = &SysEffect{Num: isa.SysSendto, Reads: []vmem.Range{{Addr: 0x1000, Size: 4}}}
	tr.Marks[4] = &Mark{ID: 1, Kind: isa.MarkPixels, Buf: vmem.Range{Addr: 0x4000_0000, Size: 256}}
	tr.Clock = []ClockPoint{{0, 0}, {3, 100}}
	return tr
}

func TestValidateOK(t *testing.T) {
	tr := sampleTrace(t)
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesBadSideTables(t *testing.T) {
	tr := sampleTrace(t)
	tr.Sys[0] = &SysEffect{} // rec 0 is not a syscall
	if err := tr.Validate(); err == nil {
		t.Error("expected error for misplaced syscall entry")
	}
	delete(tr.Sys, 0)
	tr.Marks[99] = &Mark{}
	if err := tr.Validate(); err == nil {
		t.Error("expected error for out-of-range marker index")
	}
	delete(tr.Marks, 99)
	tr.Recs[0].Kind = isa.Kind(99)
	if err := tr.Validate(); err == nil {
		t.Error("expected error for invalid kind")
	}
}

func TestSummarize(t *testing.T) {
	tr := sampleTrace(t)
	s := tr.Summarize()
	if s.Total != 5 || s.Syscalls != 1 || s.Markers != 1 || s.Functions != 2 || s.Threads != 2 {
		t.Errorf("unexpected summary: %+v", s)
	}
	if s.ByThread[0] != 2 || s.ByThread[1] != 3 {
		t.Errorf("by-thread counts: %+v", s.ByThread)
	}
	if s.ByKind[isa.KindMarker] != 1 {
		t.Errorf("by-kind counts: %+v", s.ByKind)
	}
}

func TestNames(t *testing.T) {
	tr := sampleTrace(t)
	if tr.FuncName(1) != "v8::Compile" || tr.Namespace(1) != "v8" {
		t.Error("symbol lookup wrong")
	}
	if tr.FuncName(999) == "" || tr.Namespace(999) != "" {
		t.Error("out-of-range lookup should degrade gracefully")
	}
	if th := tr.Threads[0]; th.ID != 0 || th.Name != "CrRendererMain" {
		t.Errorf("Threads[0] = %+v", th)
	}
}

func TestCycleAtInterpolation(t *testing.T) {
	tr := sampleTrace(t)
	// Checkpoints {0,0} and {3,100}: records 0..2 are cycles 0..2,
	// record 3 is cycle 100, record 4 is cycle 101.
	for i, want := range []uint64{0, 1, 2, 100, 101} {
		if got := tr.CycleAt(i); got != want {
			t.Errorf("CycleAt(%d) = %d, want %d", i, got, want)
		}
	}
	if got := tr.EndCycle(); got != 102 {
		t.Errorf("EndCycle = %d, want 102", got)
	}
	empty := New()
	if empty.EndCycle() != 0 {
		t.Error("empty trace should have EndCycle 0")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recs, tr.Recs) {
		t.Errorf("records differ:\n got %+v\nwant %+v", got.Recs, tr.Recs)
	}
	if !reflect.DeepEqual(got.Funcs, tr.Funcs) {
		t.Errorf("symbols differ: %+v vs %+v", got.Funcs, tr.Funcs)
	}
	if !reflect.DeepEqual(got.Threads, tr.Threads) {
		t.Errorf("threads differ")
	}
	if !reflect.DeepEqual(got.Sys, tr.Sys) {
		t.Errorf("syscall side tables differ: %+v vs %+v", got.Sys, tr.Sys)
	}
	if !reflect.DeepEqual(got.Marks, tr.Marks) {
		t.Errorf("marker side tables differ")
	}
	if !reflect.DeepEqual(got.Clock, tr.Clock) {
		t.Errorf("clock differs")
	}
	// The content address of a rendered trace survives the round trip.
	if got.Digest() != tr.Digest() {
		t.Error("decoding changed the trace's digest")
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := multiBlockTrace(t, DefaultBlockRecs+5).Digest()
	for name, mutate := range map[string]func(*Trace){
		"record":       func(tr *Trace) { tr.Recs[DefaultBlockRecs+3].Aux++ },
		"record count": func(tr *Trace) { tr.Recs = tr.Recs[:len(tr.Recs)-1] },
		"symbol":       func(tr *Trace) { tr.Funcs[1].Name += "x" },
		"thread":       func(tr *Trace) { tr.Threads[0].Name += "x" },
		"clock":        func(tr *Trace) { tr.Clock[1].Cycle++ },
		"syscall": func(tr *Trace) {
			for _, e := range tr.Sys {
				e.Num++
			}
		},
		"marker": func(tr *Trace) {
			for _, m := range tr.Marks {
				m.Buf.Size++
			}
		},
	} {
		tr := multiBlockTrace(t, DefaultBlockRecs+5)
		mutate(tr)
		if tr.Digest() == base {
			t.Errorf("changing the %s left the digest unchanged", name)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := readV3([]byte("not a trace file")); err == nil {
		t.Error("expected magic error")
	}
	if _, err := readV3(nil); err == nil {
		t.Error("expected EOF error")
	}
}

func TestDecodeErrorCarriesSectionAndOffset(t *testing.T) {
	enc := encodeSampleV3(t)
	// Truncate mid-file: the tail is gone, and the error must say where the
	// decoder looked for it.
	half := append([]byte(nil), enc[:len(enc)/2]...)
	_, err := readV3(half)
	if err == nil {
		t.Fatal("truncated v3 trace decoded")
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DecodeError: %v", err, err)
	}
	if de.Section == "" || de.Offset <= 0 || de.Offset > len(half) {
		t.Errorf("decode error names section %q offset %d (input %d bytes)", de.Section, de.Offset, len(half))
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	// Junk after the last index entry, under a valid index checksum: the
	// decoder itself must notice the leftover bytes rather than silently
	// ignoring them.
	enc := encodeSampleV3(t)
	indexOff := binary.LittleEndian.Uint64(enc[len(enc)-v3TailSize:])
	idx := append([]byte(nil), enc[indexOff:len(enc)-v3TailSize-4]...)
	_, err := readV3(withIndex(enc, append(idx, 0xde, 0xad, 0xbe, 0xef)))
	if err == nil {
		t.Fatal("trace with trailing garbage decoded")
	}
	var de *DecodeError
	if !errors.As(err, &de) || !strings.Contains(de.Msg, "trailing") {
		t.Errorf("unexpected error for trailing bytes: %v", err)
	}
}

func TestEncodeDecodePropertyRecs(t *testing.T) {
	// Property: arbitrary (valid-kind) record streams survive a round trip.
	f := func(seed []byte) bool {
		tr := New()
		fn, _ := tr.AddFunc("f", "ns")
		for i, b := range seed {
			tr.Recs = append(tr.Recs, Rec{
				PC:   MakePC(fn, uint16(b)),
				Kind: isa.Kind(b % 10),
				TID:  b % 3,
				Dst:  isa.Reg(i),
				Src1: isa.Reg(b),
				Addr: vmem.Addr(uint32(b) << 8),
				Aux:  uint32(i * 7),
				Size: uint16(b % 65),
			})
		}
		// Side tables must match record kinds for Validate, but encoding
		// does not require validity; skip side tables here.
		var buf bytes.Buffer
		if err := tr.WriteV3(&buf); err != nil {
			return false
		}
		got, err := readV3(buf.Bytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Recs, tr.Recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAddFuncOverflow(t *testing.T) {
	tr := New()
	for i := 1; i < MaxFuncs; i++ {
		if _, err := tr.AddFunc("f", ""); err != nil {
			t.Fatalf("AddFunc failed early at %d: %v", i, err)
		}
	}
	if _, err := tr.AddFunc("one too many", ""); err == nil {
		t.Error("expected symbol table overflow error")
	}
}
