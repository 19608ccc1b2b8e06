package vm

// Tape is the execution record the replayer needs beyond the trace itself.
// The trace stores instruction structure (kinds, registers, addresses) but
// not values; the tape captures the value side: the SSA register file (each
// register is written exactly once, so the final register file is a complete
// value log), the bytes each input syscall deposited, and ground-truth
// snapshots of criterion buffers (syscall read operands, marked pixel
// tiles). Together trace+tape make the recorded run a standalone,
// re-executable artifact (the record/replay methodology of Wasm-R3 applied
// to our ISA-level traces).
type Tape struct {
	// Regs is the SSA register file after the run: Regs[r] is the value
	// register r held for its whole lifetime. Index 0 is unused (RegNone).
	Regs []uint64
	// Fills maps a Syscall record index to a copy of the bytes the kernel
	// deposited into its write ranges.
	Fills map[int][]byte
	// SysReads maps a Syscall record index to the bytes of each read range
	// at the moment the call executed (captured before the fill applied) —
	// the ground truth a replayed slice must reproduce for the syscall
	// criterion.
	SysReads map[int][][]byte
	// MarkBytes maps a Marker record index to the marked buffer's contents
	// at mark time — the ground truth for the pixel criterion.
	MarkBytes map[int][]byte
}

// Capture attaches a fresh tape to the machine and returns it: from now on
// syscall fills and criterion ground truth are recorded.
// Call it before the traced run; after the run, seal the register file with
// SealTape (or read RegValues directly).
func (m *Machine) Capture() *Tape {
	m.tape = &Tape{
		Fills:     make(map[int][]byte),
		SysReads:  make(map[int][][]byte),
		MarkBytes: make(map[int][]byte),
	}
	return m.tape
}

// SealTape copies the final register file into the attached tape (no-op if
// Capture was never called) and returns it.
func (m *Machine) SealTape() *Tape {
	if m.tape != nil {
		m.tape.Regs = m.RegValues()
	}
	return m.tape
}

// RegValues returns a copy of the SSA register file: entry r is the value of
// register r. Entry 0 is unused.
func (m *Machine) RegValues() []uint64 {
	out := make([]uint64, len(m.vals))
	copy(out, m.vals)
	return out
}
