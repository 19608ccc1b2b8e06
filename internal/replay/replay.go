// Package replay re-executes a recorded trace with every out-of-slice
// instruction elided and asserts that the criterion values — pixel-tile
// bytes at markers, syscall read operands — reproduce byte-for-byte. It is
// the strongest oracle in the validation hierarchy (see TESTING.md): a
// successful replay proves the slice carried every dataflow and control
// decision the criteria depend on; a failed replay is a concrete
// unsoundness witness naming the first diverging record and PC.
//
// The soundness argument for eliding out-of-slice instructions, including
// input syscalls: any byte a replayed instruction reads was made live by
// the backward pass at that read, so its nearest preceding writer (store or
// syscall fill) triggered a live-kill and is in the slice; inductively the
// replay memory image agrees with the recorded run on every byte the slice
// observes. A divergence therefore means the slicer dropped a real
// dependence.
package replay

import (
	"fmt"

	"webslice/internal/isa"
	"webslice/internal/slicer"
	"webslice/internal/trace"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// Config selects which criterion ground truth the replay asserts. Check
// pixels when replaying a pixel (or union) slice, syscalls when replaying a
// syscall (or union) slice; a slice is only obliged to reproduce the values
// its own criteria made live.
type Config struct {
	CheckPixels   bool
	CheckSyscalls bool
}

// Divergence describes the first point where the replayed slice stopped
// agreeing with the recorded execution.
type Divergence struct {
	Index  int    // record index in the trace
	PC     uint32 // static program counter of the diverging record
	Reason string
}

// Error implements error.
func (d *Divergence) Error() string {
	return fmt.Sprintf("replay: divergence at record %d (pc %#x): %s", d.Index, d.PC, d.Reason)
}

// machine is the replay interpreter's state: a fresh memory image plus the
// slice-only register file. defined tracks which registers have been written
// by a replayed instruction — an in-slice use of an undefined register means
// the defining instruction was wrongly left out of the slice.
type machine struct {
	mem     *vmem.Memory
	regs    []uint64
	defined []bool
	wide    map[isa.Reg][]byte
}

// Replay re-executes the in-slice records of t against tape and returns nil
// if every asserted value reproduced, or the first divergence otherwise.
func Replay(t *trace.Trace, tape *vm.Tape, res *slicer.Result, cfg Config) *Divergence {
	if len(t.Recs) != res.Total {
		return &Divergence{Reason: fmt.Sprintf("trace has %d records but slice covers %d", len(t.Recs), res.Total)}
	}
	m := &machine{
		mem:     vmem.NewMemory(),
		regs:    make([]uint64, len(tape.Regs)),
		defined: make([]bool, len(tape.Regs)),
		wide:    make(map[isa.Reg][]byte),
	}
	for i := range t.Recs {
		r := &t.Recs[i]
		// Markers are pseudo-instructions (never in the slice themselves) but
		// carry the pixel criterion's ground truth; check them regardless.
		if r.Kind == isa.KindMarker {
			if d := m.marker(i, r, t, tape, cfg); d != nil {
				return d
			}
			continue
		}
		if !res.InSlice.Get(i) {
			// The recording vm retires a wide register's contents at its
			// first store; mirror that bookkeeping even for elided stores so
			// a later in-slice store of the same register splats exactly as
			// the recorded run did.
			if r.Kind == isa.KindStore && int(r.Size) > 8 {
				if w, ok := m.wide[r.Src1]; ok && len(w) >= int(r.Size) {
					delete(m.wide, r.Src1)
				}
			}
			continue
		}
		if d := m.step(i, r, t, tape, cfg); d != nil {
			return d
		}
	}
	return nil
}

func (m *machine) step(i int, r *trace.Rec, t *trace.Trace, tape *vm.Tape, cfg Config) *Divergence {
	switch r.Kind {
	case isa.KindConst:
		// Immediates are not stored in the record; the tape's SSA register
		// file is the value log.
		m.set(r.Dst, tape.Regs[r.Dst])
	case isa.KindOp:
		a, d := m.use(i, r, r.Src1)
		if d != nil {
			return d
		}
		b, d := m.use(i, r, r.Src2)
		if d != nil {
			return d
		}
		v := isa.AluOp(r.Aux).Eval(a, b)
		if v != tape.Regs[r.Dst] {
			return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
				"op %v computed %#x from slice-only inputs, recorded run had %#x", isa.AluOp(r.Aux), v, tape.Regs[r.Dst])}
		}
		m.set(r.Dst, v)
	case isa.KindLoad:
		if d := m.checkAddr(i, r); d != nil {
			return d
		}
		size := int(r.Size)
		v := m.mem.ReadU64(r.Addr, minInt(size, 8))
		if v != tape.Regs[r.Dst] {
			return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
				"load of %d bytes at %#x read %#x in replay memory, recorded run read %#x (a writer is missing from the slice)",
				size, r.Addr, v, tape.Regs[r.Dst])}
		}
		if size > 8 {
			m.wide[r.Dst] = m.mem.ReadBytes(r.Addr, size)
		}
		m.set(r.Dst, v)
	case isa.KindStore:
		if d := m.checkAddr(i, r); d != nil {
			return d
		}
		v, d := m.use(i, r, r.Src1)
		if d != nil {
			return d
		}
		m.writeReg(r.Addr, int(r.Size), r.Src1, v)
	case isa.KindBranch:
		c, d := m.use(i, r, r.Src1)
		if d != nil {
			return d
		}
		taken := c != 0
		recorded := r.Aux&1 == 1
		if taken != recorded {
			return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
				"branch condition evaluated to taken=%v from slice-only inputs, recorded run took taken=%v", taken, recorded)}
		}
	case isa.KindCall, isa.KindRet, isa.KindNop:
		// Structural records: no data effect to replay.
	case isa.KindSyscall:
		return m.syscall(i, r, t, tape, cfg)
	}
	return nil
}

func (m *machine) syscall(i int, r *trace.Rec, t *trace.Trace, tape *vm.Tape, cfg Config) *Divergence {
	eff := t.Sys[i]
	if cfg.CheckSyscalls {
		// Under the syscall criterion the argument registers and read
		// operands are criterion values: they must be defined by the slice
		// and reproduce byte-for-byte.
		for _, arg := range []isa.Reg{r.Src1, r.Src2} {
			if _, d := m.use(i, r, arg); d != nil {
				return d
			}
		}
		if eff != nil {
			want := tape.SysReads[i]
			for k, rd := range eff.Reads {
				got := m.mem.ReadBytes(rd.Addr, int(rd.Size))
				if k >= len(want) {
					return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
						"syscall %v read range %d missing from tape", eff.Num, k)}
				}
				if off := firstDiff(got, want[k]); off >= 0 {
					return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
						"syscall %v read operand %d differs at byte %d (addr %#x): replay %#02x, recorded %#02x",
						eff.Num, k, off, rd.Addr+vmem.Addr(off), got[off], want[k][off])}
				}
			}
		}
	}
	// Re-deposit the recorded kernel input with the recorded chunking.
	var ret uint64
	if fill, ok := tape.Fills[i]; ok && eff != nil {
		rem := fill
		for _, w := range eff.Writes {
			n := minInt(len(rem), int(w.Size))
			m.mem.WriteBytes(w.Addr, rem[:n])
			rem = rem[n:]
			ret += uint64(n)
		}
	}
	if ret != tape.Regs[r.Dst] {
		return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
			"syscall return %d differs from recorded %d", ret, tape.Regs[r.Dst])}
	}
	m.set(r.Dst, ret)
	return nil
}

func (m *machine) marker(i int, r *trace.Rec, t *trace.Trace, tape *vm.Tape, cfg Config) *Divergence {
	if !cfg.CheckPixels {
		return nil
	}
	mk := t.Marks[i]
	if mk == nil || mk.Kind != isa.MarkPixels {
		return nil
	}
	want, ok := tape.MarkBytes[i]
	if !ok {
		return &Divergence{Index: i, PC: r.PC, Reason: "pixel marker has no recorded ground truth on the tape"}
	}
	got := m.mem.ReadBytes(mk.Buf.Addr, int(mk.Buf.Size))
	if off := firstDiff(got, want); off >= 0 {
		return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
			"pixel buffer differs at byte %d (addr %#x): replay %#02x, recorded %#02x",
			off, mk.Buf.Addr+vmem.Addr(off), got[off], want[off])}
	}
	return nil
}

// use reads a source register, reporting a divergence if no in-slice
// instruction defined it (the defining record was wrongly elided).
func (m *machine) use(i int, r *trace.Rec, reg isa.Reg) (uint64, *Divergence) {
	if reg == isa.RegNone {
		return 0, nil
	}
	if int(reg) >= len(m.regs) || !m.defined[reg] {
		return 0, &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
			"use of register %d whose defining instruction is not in the slice", reg)}
	}
	return m.regs[reg], nil
}

// checkAddr asserts that a slice-computed effective address agrees with the
// recorded one (loads and stores that go through an address register).
func (m *machine) checkAddr(i int, r *trace.Rec) *Divergence {
	if r.Src2 == isa.RegNone {
		return nil
	}
	v, d := m.use(i, r, r.Src2)
	if d != nil {
		return d
	}
	if vmem.Addr(v) != r.Addr {
		return &Divergence{Index: i, PC: r.PC, Reason: fmt.Sprintf(
			"effective address computed as %#x from slice-only inputs, recorded run accessed %#x", vmem.Addr(v), r.Addr)}
	}
	return nil
}

func (m *machine) set(reg isa.Reg, v uint64) {
	if int(reg) < len(m.regs) {
		m.regs[reg] = v
		m.defined[reg] = true
	}
}

// writeReg mirrors the recording vm's store semantics: wide registers write
// their full contents once, scalars splat their 8-byte pattern.
func (m *machine) writeReg(a vmem.Addr, size int, reg isa.Reg, val uint64) {
	if size <= 8 {
		m.mem.WriteU64(a, size, val)
		return
	}
	if w, ok := m.wide[reg]; ok && len(w) >= size {
		m.mem.WriteBytes(a, w[:size])
		delete(m.wide, reg)
		return
	}
	var pat [8]byte
	for i := range pat {
		pat[i] = byte(val >> (8 * i))
	}
	for off := 0; off < size; off += 8 {
		n := minInt(8, size-off)
		m.mem.WriteBytes(a+vmem.Addr(off), pat[:n])
	}
}

func firstDiff(got, want []byte) int {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return n
	}
	return -1
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
