package js

import (
	"strings"
	"testing"
	"testing/quick"

	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func newEngine(t *testing.T) (*vm.Machine, *Engine) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	return m, NewEngine(m)
}

// compileRun compiles src and runs its top level, returning the engine and
// the machine for inspection.
func compileRun(t *testing.T, src string) (*vm.Machine, *Engine) {
	t.Helper()
	m, e := newEngine(t)
	buf := m.Heap.Alloc(len(src) + 1)
	m.Mem.WriteBytes(buf, []byte(src))
	top, err := e.Compile("test", vmem.Range{Addr: buf, Size: uint32(len(src))}, src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := e.CallByIndex(top, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, e
}

// globalValue reads a global variable's tagged value after execution.
func globalValue(m *vm.Machine, e *Engine, name string) (uint64, bool) {
	i, ok := e.globalIdx[name]
	if !ok {
		return 0, false
	}
	return m.Mem.ReadU64(e.globalsAddr+vmem.Addr(i*8), 8), true
}

func expectGlobal(t *testing.T, src, name string, want int64) {
	t.Helper()
	m, e := compileRun(t, src)
	v, ok := globalValue(m, e, name)
	if !ok {
		t.Fatalf("global %q not found", name)
	}
	got := int64(PayloadOf(v) << 16 >> 16)
	if got != want {
		t.Errorf("%s = %d, want %d\nsource:\n%s", name, got, want, src)
	}
}

func TestArithmetic(t *testing.T) {
	expectGlobal(t, "var r = 2 + 3 * 4 - 6 / 2;", "r", 11)
	expectGlobal(t, "var r = (2 + 3) * 4;", "r", 20)
	expectGlobal(t, "var r = 17 % 5;", "r", 2)
	expectGlobal(t, "var r = -5 + 8;", "r", 3)
}

func TestComparisonsAndLogic(t *testing.T) {
	expectGlobal(t, "var r = 3 < 4;", "r", 1)
	expectGlobal(t, "var r = 3 > 4;", "r", 0)
	expectGlobal(t, "var r = 3 == 3 && 4 != 5;", "r", 1)
	expectGlobal(t, "var r = 0 || 7;", "r", 7)
	expectGlobal(t, "var r = !0;", "r", 1)
	expectGlobal(t, "var r = 1 === 1;", "r", 1)
}

func TestControlFlow(t *testing.T) {
	expectGlobal(t, `
var r = 0;
if (3 > 2) { r = 10; } else { r = 20; }`, "r", 10)
	expectGlobal(t, `
var r = 0;
if (3 < 2) { r = 10; } else { r = 20; }`, "r", 20)
	expectGlobal(t, `
var r = 0;
var i = 0;
while (i < 5) { r = r + i; i = i + 1; }`, "r", 10)
	expectGlobal(t, `
var r = 0;
for (var i = 0; i < 4; i = i + 1) { r = r + i * i; }`, "r", 14)
}

func TestFunctionsAndCalls(t *testing.T) {
	expectGlobal(t, `
function add(a, b) { return a + b; }
function twice(x) { return add(x, x); }
var r = twice(21);`, "r", 42)
	expectGlobal(t, `
function fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
var r = fib(10);`, "r", 55)
}

func TestStringConcat(t *testing.T) {
	m, e := compileRun(t, `var s = 'hello ' + 'world';`)
	v, ok := globalValue(m, e, "s")
	if !ok || TagOf(v) != TagStr {
		t.Fatalf("s is not a string: %x", v)
	}
	got, _ := e.StringAt(vmem.Addr(PayloadOf(v)))
	if got != "hello world" {
		t.Errorf("s = %q", got)
	}
}

func TestCoverageTracking(t *testing.T) {
	_, e := compileRun(t, `
function used() { return 1; }
function dead(a) { return a * 2; }
var r = used();`)
	var usedF, deadF *Function
	for _, f := range e.Funcs {
		switch f.Name {
		case "used":
			usedF = f
		case "dead":
			deadF = f
		}
	}
	if usedF == nil || deadF == nil {
		t.Fatal("functions not registered")
	}
	if !usedF.Compiled || !deadF.Compiled {
		t.Error("eager compilation must compile everything")
	}
	if !usedF.Executed {
		t.Error("used function should be marked executed")
	}
	if deadF.Executed {
		t.Error("dead function must not be marked executed")
	}
	if deadF.SrcBytes() <= 0 {
		t.Error("dead function needs a source extent for Table I")
	}
}

func TestNativeCalls(t *testing.T) {
	m, e := newEngine(t)
	var gotArgs []uint64
	e.RegisterNative("probe", func(args []isa.Reg) isa.Reg {
		for _, a := range args {
			gotArgs = append(gotArgs, m.Val(a))
		}
		return m.Const(MakeValue(TagInt, 99))
	})
	src := `var r = probe(7, 8);`
	buf := m.Heap.Alloc(len(src))
	m.Mem.WriteBytes(buf, []byte(src))
	top, err := e.Compile("t", vmem.Range{Addr: buf, Size: uint32(len(src))}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CallByIndex(top, nil); err != nil {
		t.Fatal(err)
	}
	if len(gotArgs) != 2 || PayloadOf(gotArgs[0]) != 7 || PayloadOf(gotArgs[1]) != 8 {
		t.Errorf("native args = %v", gotArgs)
	}
	v, _ := globalValue(m, e, "r")
	if PayloadOf(v) != 99 {
		t.Errorf("native return = %d", PayloadOf(v))
	}
}

func TestPropHandler(t *testing.T) {
	m, e := newEngine(t)
	var sets []string
	e.RegisterNative("obj", func(args []isa.Reg) isa.Reg {
		return m.Const(MakeValue(TagElem, 0x1234))
	})
	e.Props = func(obj isa.Reg, prop string, val isa.Reg, isSet bool) isa.Reg {
		if isSet {
			sets = append(sets, prop)
		}
		return m.Const(MakeValue(TagInt, 5))
	}
	src := `var o = obj(); var x = o.width; o.height = 7;`
	buf := m.Heap.Alloc(len(src))
	m.Mem.WriteBytes(buf, []byte(src))
	top, err := e.Compile("t", vmem.Range{Addr: buf, Size: uint32(len(src))}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CallByIndex(top, nil); err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0] != "height" {
		t.Errorf("prop sets = %v", sets)
	}
	x, _ := globalValue(m, e, "x")
	if PayloadOf(x) != 5 {
		t.Errorf("prop get = %d", PayloadOf(x))
	}
}

func TestCompileErrors(t *testing.T) {
	m, e := newEngine(t)
	for _, src := range []string{
		"var x = ;",
		"function f( { }",
		"var y = unknownCall();",
		"if (1 { }",
		"var s = 'unterminated",
	} {
		buf := m.Heap.Alloc(len(src) + 1)
		m.Mem.WriteBytes(buf, []byte(src))
		if _, err := e.Compile("bad", vmem.Range{Addr: buf, Size: uint32(len(src))}, src); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	m, e := newEngine(t)
	src := `while (1) { var x = 1; }`
	buf := m.Heap.Alloc(len(src))
	m.Mem.WriteBytes(buf, []byte(src))
	top, err := e.Compile("loop", vmem.Range{Addr: buf, Size: uint32(len(src))}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CallByIndex(top, nil); err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Errorf("expected step-budget error, got %v", err)
	}
}

func TestValueTaggingProperty(t *testing.T) {
	f := func(tag uint8, payload uint64) bool {
		tg := uint64(tag % 8)
		p := payload & 0xFFFFFFFFFFFF
		v := MakeValue(tg, p)
		return TagOf(v) == tg && PayloadOf(v) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterpreterArithmeticProperty(t *testing.T) {
	// Property: the traced interpreter computes the same sum as Go for
	// arbitrary small loop bounds.
	f := func(nRaw uint8) bool {
		n := int64(nRaw % 50)
		src := "var r = 0; for (var i = 0; i < " + itoa(n) + "; i = i + 1) { r = r + i; }"
		m, e := compileRun(t, src)
		v, _ := globalValue(m, e, "r")
		return int64(PayloadOf(v)) == n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestInterpreterTracesBytecode(t *testing.T) {
	m, _ := compileRun(t, `var r = 1 + 2;`)
	// The interpreter must fetch bytecode through traced loads.
	loads := 0
	for i := range m.Tr.Recs {
		if m.Tr.Recs[i].Kind == isa.KindLoad {
			loads++
		}
	}
	if loads == 0 {
		t.Error("no traced loads: interpreter is not executing through the machine")
	}
	if err := m.Tr.Validate(); err != nil {
		t.Error(err)
	}
}
