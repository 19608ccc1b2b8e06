package cdg

import (
	"fmt"
	"testing"

	"webslice/internal/cfg"
	"webslice/internal/trace"
	"webslice/internal/vm"
)

// diamondTrace traces an if/else both ways and returns the trace plus the
// PCs of interest: branch, then-arm, else-arm, join.
func diamondTrace(t *testing.T) (tr *trace.Trace, branchPC, thenPC, elsePC, joinPC uint32) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	fn := m.Func("diamond", "test")
	var pcs [4]uint32
	run := func(v uint64) {
		m.Call(fn, func() {
			m.At("head")
			c := m.Const(v)
			_ = c
			before := len(m.Tr.Recs)
			if m.Branch(c) {
				pcs[0] = m.Tr.Recs[before].PC
				m.At("then")
				m.Const(1)
				pcs[1] = m.Tr.Recs[len(m.Tr.Recs)-1].PC
			} else {
				pcs[0] = m.Tr.Recs[before].PC
				m.At("else")
				m.Const(2)
				pcs[2] = m.Tr.Recs[len(m.Tr.Recs)-1].PC
			}
			m.At("join")
			m.Const(3)
			pcs[3] = m.Tr.Recs[len(m.Tr.Recs)-1].PC
		})
	}
	run(1)
	run(0)
	return m.Tr, pcs[0], pcs[1], pcs[2], pcs[3]
}

func TestDiamondControlDependence(t *testing.T) {
	tr, branchPC, thenPC, elsePC, joinPC := diamondTrace(t)
	f, err := cfg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(f)
	if !depends(d, thenPC, branchPC) {
		t.Errorf("then-arm %#x should be control-dependent on branch %#x; deps=%v", thenPC, branchPC, d.Of(thenPC))
	}
	if !depends(d, elsePC, branchPC) {
		t.Errorf("else-arm %#x should be control-dependent on branch %#x", elsePC, branchPC)
	}
	if depends(d, joinPC, branchPC) {
		t.Errorf("join %#x must not be control-dependent on branch (it postdominates it)", joinPC)
	}
	if len(d.Of(branchPC)) != 0 {
		t.Errorf("branch itself should have no intra-function deps here, got %v", d.Of(branchPC))
	}
}

func TestLoopBodyDependsOnLoopBranch(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	fn := m.Func("loop", "test")
	var branchPC, bodyPC uint32
	m.Call(fn, func() {
		for i := 0; i < 3; i++ {
			m.At("cond")
			c := m.Const(uint64(b2u(i < 2)))
			m.At("branch")
			before := len(m.Tr.Recs)
			taken := m.Branch(c)
			branchPC = m.Tr.Recs[before].PC
			if !taken {
				break
			}
			m.At("body")
			m.Const(5)
			bodyPC = m.Tr.Recs[len(m.Tr.Recs)-1].PC
		}
		m.At("after")
		m.Const(6)
	})
	f, err := cfg.Build(m.Tr)
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(f)
	if !depends(d, bodyPC, branchPC) {
		t.Errorf("loop body should be control-dependent on loop branch; deps=%v", d.Of(bodyPC))
	}
}

func TestNestedBranches(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	fn := m.Func("nested", "test")
	var outerPC, innerPC, innerBodyPC uint32
	run := func(a, b uint64) {
		m.Call(fn, func() {
			m.At("h")
			ca := m.Const(a)
			before := len(m.Tr.Recs)
			if m.Branch(ca) {
				outerPC = m.Tr.Recs[before].PC
				m.At("outer-then")
				cb := m.Const(b)
				bi := len(m.Tr.Recs)
				if m.Branch(cb) {
					innerPC = m.Tr.Recs[bi].PC
					m.At("inner-then")
					m.Const(1)
					innerBodyPC = m.Tr.Recs[len(m.Tr.Recs)-1].PC
				}
				m.At("outer-join")
				m.Const(2)
			}
			m.At("join")
			m.Const(3)
		})
	}
	run(1, 1)
	run(1, 0)
	run(0, 0)
	f, err := cfg.Build(m.Tr)
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(f)
	if !depends(d, innerBodyPC, innerPC) {
		t.Error("inner body should depend on inner branch")
	}
	if !depends(d, innerPC, outerPC) {
		t.Error("inner branch should depend on outer branch")
	}
	if depends(d, innerBodyPC, outerPC) {
		t.Error("direct dependence should be on the nearest branch only (transitive via pending list)")
	}
}

func TestStraightLineHasNoDeps(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	fn := m.Func("straight", "test")
	m.Call(fn, func() {
		m.Const(1)
		m.Const(2)
	})
	f, err := cfg.Build(m.Tr)
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(f)
	if len(d.ByPC) != 0 {
		t.Errorf("straight-line code has %d control-dependent PCs, want 0", len(d.ByPC))
	}
}

func depends(d *Deps, pc, on uint32) bool {
	for _, b := range d.Of(pc) {
		if b == on {
			return true
		}
	}
	return false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// manyFuncsTrace traces nFuncs distinct functions, each with data-dependent
// branching (both arms exercised) so every function contributes control
// dependences.
func manyFuncsTrace(tb testing.TB, nFuncs int) *trace.Trace {
	tb.Helper()
	m := vm.New()
	m.Thread(0, "main")
	for f := 0; f < nFuncs; f++ {
		fn := m.Func(fmt.Sprintf("f%03d", f), "test")
		m.Call(fn, func() {
			m.Loop(fmt.Sprintf("l%d", f), 4, func(i int) {
				c := m.Const(uint64((i + f) % 2))
				if m.Branch(c) {
					m.At("then")
					m.Const(1)
				} else {
					m.At("else")
					m.Const(2)
				}
				m.At("tail")
				m.Const(3)
			})
		})
	}
	return m.Tr
}

func BenchmarkCompute(b *testing.B) {
	f, err := cfg.Build(manyFuncsTrace(b, 120))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(f)
	}
}
