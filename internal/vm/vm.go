// Package vm implements the traced virtual machine: the analog of the
// paper's Pin-instrumented CPU. Engine code (the simulated browser) performs
// every semantically relevant computation through this machine — loads,
// stores, ALU operations, branches, calls, system calls — and each operation
// both executes against simulated memory/registers and appends a record to
// the dynamic trace the profiler later slices.
//
// # Tracing discipline
//
// The honesty of the whole characterization rests on two rules that all
// engine code follows:
//
//  1. Every value that flows between pipeline stages lives in vmem and moves
//     only through traced Load/Op/Store instructions. Go code may orchestrate
//     (decide loop bounds, pick addresses), but the value chain from network
//     bytes to pixels is carried entirely by traced instructions, so the
//     backward slice recovers the true provenance of every pixel.
//  2. Every control decision that depends on traced data is expressed as a
//     traced Branch on a traced condition register, and the enclosing Go
//     control flow follows the branch's outcome. Together with stable static
//     PCs (see At), this gives the profiler real control-flow graphs, real
//     postdominators, and real control dependences.
//
// # Static program counters
//
// Each traced function assigns stable site offsets to its instructions,
// keyed by (label, sequence-within-label). Engine code marks loop heads and
// branch arms with At("label") so that re-executions reuse the same PCs; the
// CFG reconstructed from the dynamic trace then contains genuine joins and
// back edges instead of an unrolled straight line.
package vm

import (
	"encoding/binary"
	"fmt"

	"webslice/internal/isa"
	"webslice/internal/trace"
	"webslice/internal/vmem"
)

// Machine is a traced virtual machine: simulated memory, per-thread contexts
// executed sequentially (the paper pinned the Chromium tab process to one
// core so Pin saw a single interleaved instruction stream), and the dynamic
// trace being recorded.
type Machine struct {
	Mem  *vmem.Memory
	Tr   *trace.Trace
	Heap *vmem.Arena
	Tile *vmem.Arena
	IOb  *vmem.Arena

	vals     []uint64           // register file, indexed by Reg; entry 0 unused
	regOwner []uint8            // creating thread per register (cross-thread use check)
	wide     map[isa.Reg][]byte // full contents of vector (>8 byte) loads

	threads map[uint8]*Thread
	cur     *Thread

	cycle  uint64
	markID uint32
	tape   *Tape

	// Strict enables cross-thread register-use panics. Registers model CPU
	// context, which is per thread; inter-thread dataflow must use memory.
	Strict bool
}

// Thread is one simulated thread of the tab process.
type Thread struct {
	ID     uint8
	Name   string
	Stack  *vmem.Arena
	frames []*frame
}

// Fn is a traced function: a symbol plus its static site table.
type Fn struct {
	ID   trace.FuncID
	Name string

	labels  map[string]*labelSites
	nextOff uint16
	full    bool
}

type labelSites struct {
	offs []uint16
}

type frame struct {
	fn    *Fn
	sites *labelSites
	seq   int
	imms  map[uint64]isa.Reg
}

// New creates a machine with an empty trace and address space.
func New() *Machine {
	m := &Machine{
		Mem:      vmem.NewMemory(),
		Tr:       trace.New(),
		Heap:     vmem.NewArena("heap", vmem.HeapBase, 0x2000_0000),
		Tile:     vmem.NewArena("tiles", vmem.TileBase, 0x1000_0000),
		IOb:      vmem.NewArena("io", vmem.IOBase, 0x0800_0000),
		vals:     make([]uint64, 1, 1<<16),
		regOwner: make([]uint8, 1, 1<<16),
		wide:     make(map[isa.Reg][]byte),
		threads:  make(map[uint8]*Thread),
		Strict:   true,
	}
	m.Tr.Clock = append(m.Tr.Clock, trace.ClockPoint{Index: 0, Cycle: 0})
	return m
}

// Func registers (or returns the existing) traced function with the given
// symbol name and namespace. Namespaces drive the paper's Figure 5
// categorization; pass "" for functions that cannot be categorized.
func (m *Machine) Func(name, namespace string) *Fn {
	id, err := m.Tr.AddFunc(name, namespace)
	if err != nil {
		panic("vm: " + err.Error())
	}
	return &Fn{ID: id, Name: name, labels: make(map[string]*labelSites)}
}

// Thread registers a named thread and returns its context. Threads are the
// analog of Chromium's renderer threads (CrRendererMain, Compositor,
// CompositorTileWorker*, Chrome_ChildIOThread, ...). Each thread gets an
// implicit root frame so records are always attributable to a function.
func (m *Machine) Thread(id uint8, name string) *Thread {
	if _, dup := m.threads[id]; dup {
		panic(fmt.Sprintf("vm: duplicate thread id %d", id))
	}
	t := &Thread{
		ID:    id,
		Name:  name,
		Stack: vmem.NewArena("stack:"+name, vmem.StackFor(id), vmem.StackSpan),
	}
	root := m.Func("thread_root:"+name, "base/threading")
	t.frames = append(t.frames, newFrame(root))
	m.threads[id] = t
	m.Tr.Threads = append(m.Tr.Threads, trace.ThreadInfo{ID: id, Name: name})
	if m.cur == nil {
		m.cur = t
	}
	return t
}

// Switch makes tid the executing thread. The machine is sequential (single
// core), so this models a context switch: register state is per thread,
// memory is shared.
func (m *Machine) Switch(tid uint8) {
	t := m.threads[tid]
	if t == nil {
		panic(fmt.Sprintf("vm: switch to unknown thread %d", tid))
	}
	m.cur = t
}

// Cur returns the executing thread.
func (m *Machine) Cur() *Thread { return m.cur }

// Cycle returns the current virtual time (1 instruction = 1 cycle; Idle
// advances time without instructions).
func (m *Machine) Cycle() uint64 { return m.cycle }

// Idle advances virtual time by n cycles with no instruction executing
// (network latency, user think time, an idle main loop).
func (m *Machine) Idle(n uint64) {
	if n == 0 {
		return
	}
	m.cycle += n
	m.Tr.Clock = append(m.Tr.Clock, trace.ClockPoint{Index: len(m.Tr.Recs), Cycle: m.cycle})
}

func newFrame(fn *Fn) *frame {
	f := &frame{fn: fn, imms: make(map[uint64]isa.Reg)}
	f.at("")
	return f
}

func (f *frame) at(label string) {
	s := f.fn.labels[label]
	if s == nil {
		s = &labelSites{}
		f.fn.labels[label] = s
	}
	f.sites = s
	f.seq = 0
}

// pc returns the stable PC for the next instruction site in the frame.
func (f *frame) pc() uint32 {
	if f.seq >= len(f.sites.offs) {
		if f.fn.full {
			// Site table overflowed earlier: fold extra sites onto the last
			// offset so tracing can continue (CFG precision degrades for
			// this function only).
			return trace.MakePC(f.fn.ID, f.fn.nextOff)
		}
		f.fn.nextOff++
		if f.fn.nextOff == 0xFFFF {
			f.fn.full = true
		}
		f.sites.offs = append(f.sites.offs, f.fn.nextOff)
	}
	off := f.sites.offs[f.seq]
	f.seq++
	return trace.MakePC(f.fn.ID, off)
}

func (m *Machine) frame() *frame {
	t := m.cur
	if t == nil {
		panic("vm: no thread registered")
	}
	return t.frames[len(t.frames)-1]
}

// At marks a static label inside the current function: the next emitted
// instructions reuse the site sequence recorded for this label. Place one at
// every loop head and branch arm.
func (m *Machine) At(label string) { m.frame().at(label) }

func (m *Machine) emit(r trace.Rec) int {
	r.PC = m.frame().pc()
	r.TID = m.cur.ID
	m.Tr.Recs = push(m.Tr.Recs, r)
	m.cycle++
	return len(m.Tr.Recs) - 1
}

func (m *Machine) newReg(v uint64) isa.Reg {
	m.vals = push(m.vals, v)
	m.regOwner = push(m.regOwner, m.cur.ID)
	return isa.Reg(len(m.vals) - 1)
}

// push appends v to s, doubling s's capacity (to at least 1024) when it
// is full. The trace and the register file grow to millions of elements;
// append grows a slice that large by about 1.25 times, so each element
// would be copied about four times over a render, and doubling copies it
// about once. slices.Grow is no shortcut: asked for twice the capacity,
// it steps by 1.25 until past it, about 2.4 times in all, which raised the
// peak RSS of a scale-2 Bing slice by 14%.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		g := make([]T, len(s), max(2*cap(s), 1024))
		copy(g, s)
		s = g
	}
	return append(s, v)
}

func (m *Machine) use(r isa.Reg) uint64 {
	if r == isa.RegNone || int(r) >= len(m.vals) {
		panic(fmt.Sprintf("vm: use of invalid register %d", r))
	}
	if m.Strict && m.regOwner[r] != m.cur.ID {
		panic(fmt.Sprintf("vm: thread %q uses register %d owned by thread %d (cross-thread dataflow must go through memory)",
			m.cur.Name, r, m.regOwner[r]))
	}
	return m.vals[r]
}

// Val returns the current value of a register without tracing a use.
func (m *Machine) Val(r isa.Reg) uint64 { return m.vals[r] }

// Const materializes an immediate into a fresh register.
func (m *Machine) Const(v uint64) isa.Reg {
	d := m.newReg(v)
	m.emit(trace.Rec{Kind: isa.KindConst, Dst: d})
	return d
}

// Op computes a binary ALU operation.
func (m *Machine) Op(op isa.AluOp, a, b isa.Reg) isa.Reg {
	va, vb := m.use(a), m.use(b)
	d := m.newReg(op.Eval(va, vb))
	m.emit(trace.Rec{Kind: isa.KindOp, Dst: d, Src1: a, Src2: b, Aux: uint32(op)})
	return d
}

// Imm returns a register holding the immediate v, materializing it with a
// Const instruction the first time the current function activation needs it
// (the compiler keeps constants in registers within a function; cached
// registers never escape their frame, so attribution stays honest).
func (m *Machine) Imm(v uint64) isa.Reg {
	f := m.frame()
	if r, ok := f.imms[v]; ok {
		return r
	}
	r := m.Const(v)
	f.imms[v] = r
	return r
}

// OpImm is Op with an immediate second operand (materialized via Imm).
func (m *Machine) OpImm(op isa.AluOp, a isa.Reg, imm uint64) isa.Reg {
	return m.Op(op, a, m.Imm(imm))
}

// MaxAccess is the largest memory access a single instruction may perform
// (one cache-line-sized vector access, as on x86-64 with AVX-512).
const MaxAccess = 64

func checkSize(size int) {
	if size < 1 || size > MaxAccess {
		panic(fmt.Sprintf("vm: access size %d out of range", size))
	}
}

// Load reads size bytes at a into a fresh register. Loads wider than 8
// bytes are vector loads: the register carries the full contents (its scalar
// value is the low 8 bytes), like an XMM/ZMM register.
func (m *Machine) Load(a vmem.Addr, size int) isa.Reg {
	checkSize(size)
	d := m.newReg(m.Mem.ReadU64(a, min(size, 8)))
	if size > 8 {
		m.wide[d] = m.Mem.ReadBytes(a, size)
	}
	m.emit(trace.Rec{Kind: isa.KindLoad, Dst: d, Addr: a, Size: uint16(size)})
	return d
}

// LoadVia is Load with the effective address taken from a register, so the
// address computation participates in the slice.
func (m *Machine) LoadVia(addrReg isa.Reg, size int) isa.Reg {
	checkSize(size)
	a := vmem.Addr(m.use(addrReg))
	d := m.newReg(m.Mem.ReadU64(a, min(size, 8)))
	if size > 8 {
		m.wide[d] = m.Mem.ReadBytes(a, size)
	}
	m.emit(trace.Rec{Kind: isa.KindLoad, Dst: d, Src2: addrReg, Addr: a, Size: uint16(size)})
	return d
}

// Store writes size bytes of v at a. If v is a vector register (from a wide
// Load) its full contents are written; otherwise its 8-byte scalar value is
// repeated across the span (a splat store).
func (m *Machine) Store(a vmem.Addr, size int, v isa.Reg) {
	checkSize(size)
	m.writeReg(a, size, v)
	m.emit(trace.Rec{Kind: isa.KindStore, Src1: v, Addr: a, Size: uint16(size)})
}

// StoreVia is Store with the effective address taken from a register.
func (m *Machine) StoreVia(addrReg isa.Reg, size int, v isa.Reg) {
	checkSize(size)
	a := vmem.Addr(m.use(addrReg))
	m.writeReg(a, size, v)
	m.emit(trace.Rec{Kind: isa.KindStore, Src1: v, Src2: addrReg, Addr: a, Size: uint16(size)})
}

func (m *Machine) writeReg(a vmem.Addr, size int, v isa.Reg) {
	val := m.use(v)
	if size <= 8 {
		m.Mem.WriteU64(a, size, val)
		return
	}
	if w, ok := m.wide[v]; ok && len(w) >= size {
		m.Mem.WriteBytes(a, w[:size])
		// Vector registers are transient (load-then-store); drop the wide
		// contents after the first store so the side map stays small over
		// multi-million-instruction traces.
		delete(m.wide, v)
		return
	}
	var pat [MaxAccess]byte
	for off := 0; off < size; off += 8 {
		binary.LittleEndian.PutUint64(pat[off:], val)
	}
	m.Mem.WriteBytes(a, pat[:size])
}

// Branch emits a conditional branch on cond and returns whether it was
// taken (cond != 0), so Go control flow can follow the traced decision.
func (m *Machine) Branch(cond isa.Reg) bool {
	taken := m.use(cond) != 0
	var aux uint32
	if taken {
		aux = 1
	}
	m.emit(trace.Rec{Kind: isa.KindBranch, Src1: cond, Aux: aux})
	return taken
}

// Call emits a call to fn, executes body inside the callee frame, then
// emits the return. Arguments and results pass through registers (same
// thread) or memory, at the caller's choice.
func (m *Machine) Call(fn *Fn, body func()) {
	m.emit(trace.Rec{Kind: isa.KindCall, Aux: uint32(fn.ID)})
	t := m.cur
	t.frames = append(t.frames, newFrame(fn))
	body()
	if m.cur != t {
		panic("vm: thread switched inside a call body")
	}
	m.emit(trace.Rec{Kind: isa.KindRet})
	t.frames = t.frames[:len(t.frames)-1]
}

// Syscall emits a system call. a1 and a2 are argument registers the kernel
// reads (use RegNone when absent); reads and writes are the user-memory
// ranges the kernel consumes and produces. For an input call, `fill`
// (optional) provides the bytes the kernel deposits.
func (m *Machine) Syscall(num isa.Sys, a1, a2 isa.Reg, reads, writes []vmem.Range, fill []byte) isa.Reg {
	if a1 != isa.RegNone {
		m.use(a1)
	}
	if a2 != isa.RegNone {
		m.use(a2)
	}
	// Replay ground truth: snapshot the read operands before the fill lands
	// (the bytes the kernel consumed at call time).
	var sysReads [][]byte
	if m.tape != nil && len(reads) > 0 {
		sysReads = make([][]byte, len(reads))
		for k, rd := range reads {
			sysReads[k] = m.Mem.ReadBytes(rd.Addr, int(rd.Size))
		}
	}
	var ret uint64
	if len(writes) > 0 && fill != nil {
		rem := fill
		for _, w := range writes {
			n := min(len(rem), int(w.Size))
			m.Mem.WriteBytes(w.Addr, rem[:n])
			rem = rem[n:]
			ret += uint64(n)
		}
	}
	d := m.newReg(ret)
	i := m.emit(trace.Rec{Kind: isa.KindSyscall, Dst: d, Src1: a1, Src2: a2, Aux: uint32(num)})
	m.Tr.Sys[i] = &trace.SysEffect{Num: num, Reads: reads, Writes: writes}
	if m.tape != nil {
		if sysReads != nil {
			m.tape.SysReads[i] = sysReads
		}
		if fill != nil {
			m.tape.Fills[i] = append([]byte(nil), fill...)
		}
	}
	return d
}

// MarkPixels plants a pixel-criteria marker declaring that buf holds final
// pixel values about to be displayed — the analog of the paper's
// `xchg %r13w,%r13w` marker plus external tile-address file written inside
// RasterBufferProvider::PlaybackToMemory.
func (m *Machine) MarkPixels(buf vmem.Range) {
	m.mark(isa.MarkPixels, buf)
}

func (m *Machine) mark(kind isa.MarkKind, buf vmem.Range) {
	m.markID++
	i := m.emit(trace.Rec{Kind: isa.KindMarker, Aux: m.markID})
	m.Tr.Marks[i] = &trace.Mark{ID: m.markID, Kind: kind, Buf: buf}
	if m.tape != nil {
		m.tape.MarkBytes[i] = m.Mem.ReadBytes(buf.Addr, int(buf.Size))
	}
}
