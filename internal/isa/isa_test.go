package isa

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNop:     "nop",
		KindConst:   "const",
		KindOp:      "op",
		KindLoad:    "load",
		KindStore:   "store",
		KindBranch:  "branch",
		KindCall:    "call",
		KindRet:     "ret",
		KindSyscall: "syscall",
		KindMarker:  "marker",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
		if !k.Valid() {
			t.Errorf("Kind %v should be valid", k)
		}
	}
	if Kind(200).Valid() {
		t.Error("Kind(200) should be invalid")
	}
	if Kind(200).String() == "" {
		t.Error("invalid kind should still print")
	}
}

func TestAluOpEvalBasics(t *testing.T) {
	cases := []struct {
		op   AluOp
		a, b uint64
		want uint64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 10, 4, 6},
		{OpMul, 5, 6, 30},
		{OpDiv, 42, 6, 7},
		{OpDiv, 42, 0, 0},
		{OpMod, 42, 5, 2},
		{OpMod, 42, 0, 0},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 4, 16},
		{OpShr, 16, 4, 1},
		{OpShl, 1, 64, 1}, // shift amount masked to 6 bits
		{OpCmpEQ, 5, 5, 1},
		{OpCmpEQ, 5, 6, 0},
		{OpCmpNE, 5, 6, 1},
		{OpCmpLT, ^uint64(0), 1, 1}, // -1 < 1 signed
		{OpCmpLE, 3, 3, 1},
		{OpCmpGT, 4, 3, 1},
		{OpCmpGE, 3, 4, 0},
		{OpMin, ^uint64(0), 3, ^uint64(0)}, // signed min(-1, 3) = -1
		{OpMax, ^uint64(0), 3, 3},
		{OpMov, 99, 12345, 99},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestAluCompareComplementary(t *testing.T) {
	// Property: EQ/NE, LT/GE, LE/GT are complements for all inputs.
	f := func(a, b uint64) bool {
		return OpCmpEQ.Eval(a, b) != OpCmpNE.Eval(a, b) &&
			OpCmpLT.Eval(a, b) != OpCmpGE.Eval(a, b) &&
			OpCmpLE.Eval(a, b) != OpCmpGT.Eval(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAluAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint64) bool {
		return OpSub.Eval(OpAdd.Eval(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAluMinMaxOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		lo, hi := OpMin.Eval(a, b), OpMax.Eval(a, b)
		return OpCmpLE.Eval(lo, hi) == 1 && (lo == a && hi == b || lo == b && hi == a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSysSpecs(t *testing.T) {
	if SysSendto.String() != "sendto" || SysRecvfrom.String() != "recvfrom" {
		t.Errorf("names = %q, %q", SysSendto.String(), SysRecvfrom.String())
	}
	if Sys(9999).String() != "sys(9999)" {
		t.Errorf("unknown syscall prints %q", Sys(9999).String())
	}
	if len(sysNames) < 10 {
		t.Errorf("expected a meaningful syscall table, got %d entries", len(sysNames))
	}
}

func TestAluOpStringAndValid(t *testing.T) {
	for op := OpAdd; op < opEnd; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if AluOp(1000).String() != "aluop(1000)" {
		t.Errorf("AluOp(1000).String() = %q", AluOp(1000).String())
	}
	if OpAdd.String() != "add" || OpCmpLT.String() != "cmplt" {
		t.Error("unexpected op names")
	}
}

func TestMarkKindString(t *testing.T) {
	if MarkPixels.String() != "pixels" || MarkAux.String() != "aux" {
		t.Error("unexpected mark kind names")
	}
	if MarkKind(9).String() == "" {
		t.Error("unknown mark kind should still print")
	}
}
