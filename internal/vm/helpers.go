package vm

import (
	"webslice/internal/isa"
	"webslice/internal/vmem"
)

// This file holds convenience wrappers over the core instruction emitters.
// They keep engine code terse without changing the tracing discipline: every
// helper bottoms out in traced Load/Op/Store/Branch instructions.

// Copy emits a traced memory copy of n bytes (vector loads and stores in
// MaxAccess-sized chunks, like an unrolled memcpy).
func (m *Machine) Copy(dst, src vmem.Addr, n int) {
	m.At("memcpy")
	for n > 0 {
		c := min(n, MaxAccess)
		v := m.Load(src, c)
		m.Store(dst, c, v)
		src += vmem.Addr(c)
		dst += vmem.Addr(c)
		n -= c
	}
}

// Fill stores the low byte of v into n bytes starting at dst (traced, in
// chunked vector stores). The register value is splatted, like memset.
func (m *Machine) Fill(dst vmem.Addr, n int, v isa.Reg) {
	m.At("memset")
	splat := m.splat(v)
	for n > 0 {
		c := min(n, MaxAccess)
		m.Store(dst, c, splat)
		dst += vmem.Addr(c)
		n -= c
	}
}

func (m *Machine) splat(v isa.Reg) isa.Reg {
	b := m.OpImm(isa.OpAnd, v, 0xFF)
	s := b
	for i := 0; i < 3; i++ {
		sh := m.OpImm(isa.OpShl, s, uint64(8<<uint(i)))
		s = m.Op(isa.OpOr, s, sh)
	}
	return s
}

// WriteData emits traced constant stores of b at a (the program
// materializing computed constants into memory).
func (m *Machine) WriteData(a vmem.Addr, b []byte) {
	m.At("writedata")
	for len(b) > 0 {
		c := min(len(b), 8)
		var v uint64
		for i := 0; i < c; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
		m.Store(a, c, m.Const(v))
		a += vmem.Addr(c)
		b = b[c:]
	}
}

// LoadU32 loads four bytes.
func (m *Machine) LoadU32(a vmem.Addr) isa.Reg { return m.Load(a, 4) }

// LoadU64 loads eight bytes.
func (m *Machine) LoadU64(a vmem.Addr) isa.Reg { return m.Load(a, 8) }

// StoreU32 stores four bytes of v.
func (m *Machine) StoreU32(a vmem.Addr, v isa.Reg) { m.Store(a, 4, v) }

// StoreU64 stores eight bytes of v.
func (m *Machine) StoreU64(a vmem.Addr, v isa.Reg) { m.Store(a, 8, v) }

// AddImm adds an immediate.
func (m *Machine) AddImm(a isa.Reg, imm uint64) isa.Reg { return m.OpImm(isa.OpAdd, a, imm) }

// Mov copies a register.
func (m *Machine) Mov(a isa.Reg) isa.Reg { return m.Op(isa.OpMov, a, a) }

// Loop runs body n times under a traced counted loop: induction update,
// bounds compare, and conditional exit branch per iteration. The explicit
// exit branch matters for control dependence: it makes the code after the
// loop reachable from the loop head without passing through the body, so
// body work is control-dependent on the loop/guard branches exactly as in
// real machine code.
func (m *Machine) Loop(label string, n int, body func(i int)) {
	idx := m.Imm(0)
	bound := m.Imm(uint64(n))
	for i := 0; ; i++ {
		m.At(label + ":head")
		c := m.Op(isa.OpCmpLT, idx, bound)
		if !m.Branch(c) {
			break
		}
		m.At(label + ":body")
		body(i)
		m.At(label + ":next")
		idx = m.AddImm(idx, 1)
	}
	m.At(label + ":done")
}
