// Package isa defines the virtual instruction set architecture used by the
// traced machine (package vm) and analyzed by the slicing profiler.
//
// The profiler in the ISPASS'19 paper works on machine-level (x86-64)
// instruction traces collected with Intel Pin. This repository has no
// hardware tracer, so the browser engine executes on a small virtual ISA
// instead. The ISA deliberately exposes exactly the information the paper's
// Pin tool recorded: the static opcode class of each instruction, the
// registers it reads and writes, the exact memory addresses it accesses, the
// thread it ran on, and — for syscall instructions — the system call number.
package isa

import "fmt"

// Reg identifies a virtual register. Registers are SSA-like: the traced
// machine allocates a fresh register for every value-producing instruction,
// so each register is written exactly once. RegNone (0) means "no register".
//
// Register IDs are unique across the whole trace but are only ever used by
// the thread that created them; cross-thread dataflow must go through memory,
// mirroring how the paper keeps a separate live-register set per thread while
// sharing a single live-memory set.
type Reg uint32

// RegNone is the zero register operand: the instruction does not read or
// write a register in that slot.
const RegNone Reg = 0

// Kind classifies a dynamic instruction record.
type Kind uint8

const (
	// KindNop does nothing. Used for padding and as a safe zero value.
	KindNop Kind = iota
	// KindConst writes an immediate value to Dst. It has no dependencies;
	// it models instructions like `mov $imm, %reg` and `lea`.
	KindConst
	// KindOp computes Dst from Src1 and Src2 (ALU). Aux holds the AluOp.
	KindOp
	// KindLoad reads Size bytes at Addr into Dst. Src1, if non-zero, is the
	// register the effective address was computed into, so index
	// computations participate in the slice (as they do on real hardware,
	// where the address operand registers are read by the load).
	KindLoad
	// KindStore writes Src1 (Size bytes) to Addr. Src2, if non-zero, is the
	// address register (see KindLoad).
	KindStore
	// KindBranch is a conditional branch on Src1. Aux is 1 if taken. The
	// successor is whatever program counter executes next in the same
	// function instance; the CFG builder recovers edges from the dynamic
	// trace, exactly as the paper does for indirect branches.
	KindBranch
	// KindCall transfers control to the function identified by Aux.
	KindCall
	// KindRet returns from the current function.
	KindRet
	// KindSyscall invokes the kernel. Aux is the syscall number; Src1 and
	// Src2 are argument registers read by the call, Dst receives the
	// result. Memory read/write ranges are recorded in the trace's syscall
	// side table, the analog of the paper's per-syscall kernel-manual
	// semantics.
	KindSyscall
	// KindMarker is the slicing-criteria marker, the analog of the paper's
	// `xchg %r13w, %r13w` pseudo-instruction planted in
	// RasterBufferProvider::PlaybackToMemory. Aux is the marker ID; the
	// associated memory range lives in the trace's marker side table (the
	// "external file" of the paper).
	KindMarker
)

var kindNames = [...]string{
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

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined instruction kind.
func (k Kind) Valid() bool { return k <= KindMarker }

// AluOp selects the operation of a KindOp instruction.
type AluOp uint32

const (
	OpAdd AluOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpCmpEQ // 1 if a == b else 0
	OpCmpNE
	OpCmpLT // signed
	OpCmpLE
	OpCmpGT
	OpCmpGE
	OpMin
	OpMax
	OpMov // Dst = Src1 (register move)
	opEnd
)

var aluNames = [opEnd]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt", OpCmpLE: "cmple",
	OpCmpGT: "cmpgt", OpCmpGE: "cmpge", OpMin: "min", OpMax: "max", OpMov: "mov",
}

func (o AluOp) String() string {
	if int(o) < len(aluNames) {
		return aluNames[o]
	}
	return fmt.Sprintf("aluop(%d)", uint32(o))
}

// Eval applies the ALU operation to two operand values. Division and modulo
// by zero yield zero rather than faulting, like saturating hardware helpers.
func (o AluOp) Eval(a, b uint64) uint64 {
	switch o {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpCmpEQ:
		return b2u(a == b)
	case OpCmpNE:
		return b2u(a != b)
	case OpCmpLT:
		return b2u(int64(a) < int64(b))
	case OpCmpLE:
		return b2u(int64(a) <= int64(b))
	case OpCmpGT:
		return b2u(int64(a) > int64(b))
	case OpCmpGE:
		return b2u(int64(a) >= int64(b))
	case OpMin:
		if int64(a) < int64(b) {
			return a
		}
		return b
	case OpMax:
		if int64(a) > int64(b) {
			return a
		}
		return b
	case OpMov:
		return a
	default:
		return 0
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MarkKind distinguishes classes of criteria markers.
type MarkKind uint8

const (
	// MarkPixels flags a buffer holding final pixel values headed for the
	// display — the paper's primary slicing criterion.
	MarkPixels MarkKind = iota
	// MarkAux flags any other analyst-chosen criteria buffer.
	MarkAux
)

func (m MarkKind) String() string {
	switch m {
	case MarkPixels:
		return "pixels"
	case MarkAux:
		return "aux"
	default:
		return fmt.Sprintf("mark(%d)", uint8(m))
	}
}
