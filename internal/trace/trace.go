// Package trace defines the dynamic instruction trace the profiler consumes:
// the analog of the files the paper's Pin tool wrote to stable storage while
// Chromium rendered a page. A trace couples a compact record stream with a
// symbol table (function names and namespaces, the basis of the paper's
// categorization in Figure 5), a syscall side table (per-call memory effect
// sets, derived the way the paper derived them from the kernel manual), and a
// marker side table (the "external file" holding pixel-buffer addresses for
// the slicing criteria).
package trace

import (
	"fmt"
	"sort"

	"webslice/internal/isa"
	"webslice/internal/vmem"
)

// FuncID identifies a traced function. PCs embed their FuncID in the high
// bits so every program counter is globally unique and trivially attributable.
type FuncID uint32

// FuncIDNone marks records not attributable to any function (should not
// occur in well-formed traces).
const FuncIDNone FuncID = 0

// PC bit layout: FuncID in the high 16 bits, instruction-site offset in the
// low 16. A function may therefore contain at most 64 Ki static sites.
const (
	pcFuncShift = 16
	pcOffMask   = 0xFFFF
	// MaxFuncs is the largest number of distinct functions a trace can name.
	MaxFuncs = 1 << 16
)

// MakePC builds a program counter from a function ID and a site offset.
func MakePC(fn FuncID, off uint16) uint32 { return uint32(fn)<<pcFuncShift | uint32(off) }

// FuncOfPC extracts the function a PC belongs to.
func FuncOfPC(pc uint32) FuncID { return FuncID(pc >> pcFuncShift) }

// OffOfPC extracts the site offset within the function.
func OffOfPC(pc uint32) uint16 { return uint16(pc & pcOffMask) }

// Rec is one dynamic instruction record. The layout mirrors what the paper's
// Pin tool captured: static opcode information plus runtime addresses and
// the executing thread.
type Rec struct {
	PC   uint32    // static program counter (function ID << 16 | site)
	Dst  isa.Reg   // destination register, RegNone if none
	Src1 isa.Reg   // first source register (branch: condition; store: value)
	Src2 isa.Reg   // second source register (load/store: address register)
	Addr vmem.Addr // memory effective address (load/store)
	Aux  uint32    // kind-specific: AluOp, callee FuncID, syscall number, marker ID, branch taken
	Size uint16    // memory access size in bytes
	Kind isa.Kind
	TID  uint8 // executing thread
}

// Func returns the function the record belongs to.
func (r *Rec) Func() FuncID { return FuncOfPC(r.PC) }

// MemRange returns the record's direct memory range (loads and stores).
func (r *Rec) MemRange() vmem.Range { return vmem.Range{Addr: r.Addr, Size: uint32(r.Size)} }

// SysEffect records the dynamic memory semantics of one executed syscall:
// the ranges the kernel read from and wrote to user memory.
type SysEffect struct {
	Num    isa.Sys
	Reads  []vmem.Range
	Writes []vmem.Range
}

// Mark is one slicing-criteria marker: at the marker's program point, the
// given buffer holds values of interest (for MarkPixels, final pixel values
// about to be displayed).
type Mark struct {
	ID   uint32
	Kind isa.MarkKind
	Buf  vmem.Range
}

// FuncInfo is a symbol-table entry.
type FuncInfo struct {
	Name string
	// Namespace is the source namespace of the function
	// (e.g. "v8", "blink/css", "base/debug", "cc", "ipc"). The empty string
	// means the function has no namespace and cannot be categorized — the
	// paper could categorize only 53–74% of instructions for the same
	// reason.
	Namespace string
}

// ThreadInfo names a thread, matching Chromium thread naming.
type ThreadInfo struct {
	ID   uint8
	Name string
}

// Trace is a complete dynamic trace plus side tables.
type Trace struct {
	Recs    []Rec
	Funcs   []FuncInfo // indexed by FuncID; entry 0 is a placeholder
	Threads []ThreadInfo
	// Sys maps record index -> syscall effect, for KindSyscall records.
	Sys map[int]*SysEffect
	// Marks maps record index -> marker, for KindMarker records.
	Marks map[int]*Mark
	// Clock, if non-nil, gives the virtual cycle at which selected records
	// executed, as (record index, cycle) checkpoints in increasing order.
	// Idle time (no instruction executing) appears as cycle gaps. Used by
	// the CPU-utilization analysis (paper Figure 2).
	Clock []ClockPoint
}

// ClockPoint anchors a record index to a virtual cycle.
type ClockPoint struct {
	Index int
	Cycle uint64
}

// New returns an empty trace with initialized side tables.
func New() *Trace {
	return &Trace{
		Funcs: []FuncInfo{{Name: "<none>"}},
		Sys:   make(map[int]*SysEffect),
		Marks: make(map[int]*Mark),
	}
}

// AddFunc registers a function symbol and returns its ID.
func (t *Trace) AddFunc(name, namespace string) (FuncID, error) {
	if len(t.Funcs) >= MaxFuncs {
		return 0, fmt.Errorf("trace: symbol table full (%d functions)", MaxFuncs)
	}
	t.Funcs = append(t.Funcs, FuncInfo{Name: name, Namespace: namespace})
	return FuncID(len(t.Funcs) - 1), nil
}

// FuncName returns the symbol name for fn, or a placeholder.
func (t *Trace) FuncName(fn FuncID) string {
	if int(fn) < len(t.Funcs) {
		return t.Funcs[fn].Name
	}
	return fmt.Sprintf("fn%d", uint32(fn))
}

// Namespace returns the namespace for fn ("" if none).
func (t *Trace) Namespace(fn FuncID) string {
	if int(fn) < len(t.Funcs) {
		return t.Funcs[fn].Namespace
	}
	return ""
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Recs) }

// CycleAt returns the virtual cycle of record index i, interpolating between
// clock checkpoints (cycle advances one per record between checkpoints).
func (t *Trace) CycleAt(i int) uint64 {
	if len(t.Clock) == 0 {
		return uint64(i)
	}
	j := sort.Search(len(t.Clock), func(j int) bool { return t.Clock[j].Index > i }) - 1
	if j < 0 {
		return uint64(i)
	}
	cp := t.Clock[j]
	return cp.Cycle + uint64(i-cp.Index)
}

// EndCycle returns the virtual cycle just past the last record.
func (t *Trace) EndCycle() uint64 {
	if t.Len() == 0 {
		return 0
	}
	return t.CycleAt(t.Len()-1) + 1
}

// Summary aggregates simple whole-trace statistics.
type Summary struct {
	Total     int
	ByKind    map[isa.Kind]int
	ByThread  map[uint8]int
	Syscalls  int
	Markers   int
	Functions int
	Threads   int
}

// Summarize scans the trace once and returns aggregate statistics.
func (t *Trace) Summarize() Summary {
	s := Summary{
		Total:     len(t.Recs),
		ByKind:    make(map[isa.Kind]int),
		ByThread:  make(map[uint8]int),
		Syscalls:  len(t.Sys),
		Markers:   len(t.Marks),
		Functions: len(t.Funcs) - 1,
		Threads:   len(t.Threads),
	}
	for i := range t.Recs {
		s.ByKind[t.Recs[i].Kind]++
		s.ByThread[t.Recs[i].TID]++
	}
	return s
}

// Validate checks structural invariants: every record's function exists,
// syscall/marker side-table indexes point at records of the right kind, and
// kinds are defined. It returns the first violation found.
func (t *Trace) Validate() error {
	for i := range t.Recs {
		r := &t.Recs[i]
		if !r.Kind.Valid() {
			return fmt.Errorf("rec %d: invalid kind %d", i, uint8(r.Kind))
		}
		if int(r.Func()) >= len(t.Funcs) {
			return fmt.Errorf("rec %d: function %d out of range", i, r.Func())
		}
	}
	for i := range t.Sys {
		if i < 0 || i >= len(t.Recs) {
			return fmt.Errorf("syscall side table: index %d out of range", i)
		}
		if t.Recs[i].Kind != isa.KindSyscall {
			return fmt.Errorf("syscall side table: rec %d is %v, not syscall", i, t.Recs[i].Kind)
		}
	}
	for i := range t.Marks {
		if i < 0 || i >= len(t.Recs) {
			return fmt.Errorf("marker side table: index %d out of range", i)
		}
		if t.Recs[i].Kind != isa.KindMarker {
			return fmt.Errorf("marker side table: rec %d is %v, not marker", i, t.Recs[i].Kind)
		}
	}
	return nil
}
