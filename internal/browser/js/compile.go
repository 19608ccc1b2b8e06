package js

import (
	"fmt"

	"webslice/internal/browser/ns"
	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// Value tagging: 64-bit values with the type tag in bits 48..51.
const (
	TagInt   = 0
	TagStr   = 1
	TagElem  = 2 // DOM element (payload = node address)
	TagFunc  = 3 // user function index
	TagBool  = 4
	TagUndef = 5
)

// MakeValue builds a tagged value.
func MakeValue(tag uint64, payload uint64) uint64 { return tag<<48 | payload&0xFFFFFFFFFFFF }

// TagOf extracts the tag.
func TagOf(v uint64) uint64 { return v >> 48 }

// PayloadOf extracts the payload.
func PayloadOf(v uint64) uint64 { return v & 0xFFFFFFFFFFFF }

// Bytecode opcodes (word = op | a<<8 | b<<16).
const (
	opPushK = iota + 1
	opLoadL
	opStoreL
	opLoadG
	opStoreG
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opLt
	opLe
	opGt
	opGe
	opEq
	opNe
	opNot
	opNeg
	opJmp
	opJz
	opCall
	opNCall
	opRet
	opPop
	opGetProp
	opSetProp
)

func word(op, a, b int) uint32 { return uint32(op) | uint32(a)<<8 | uint32(b)<<16 }

// Function is one compiled JavaScript function.
type Function struct {
	Name   string
	Params []string

	Code     vmem.Addr
	Words    []uint32 // Go mirror of the bytecode
	Consts   vmem.Addr
	ConstVal []uint64 // Go mirror (tagged values)
	constStr []string // prop/string names per const slot ("" if none)

	NumLocals int
	SrcStart  int
	SrcEnd    int

	Sym *vm.Fn
	// Compiled/Executed drive the unused-bytes accounting of Table I.
	Compiled bool
	Executed bool
}

// SrcBytes is the function's source extent.
func (f *Function) SrcBytes() int { return f.SrcEnd - f.SrcStart }

// Native is a builtin function provided by the embedder (DOM bindings,
// console, timers...). It receives argument registers (arg0 is the receiver
// for method-style calls) and returns a result register (RegNone = undefined).
type Native func(args []isa.Reg) isa.Reg

// PropHandler implements obj.prop get/set for DOM element values.
type PropHandler func(obj isa.Reg, prop string, val isa.Reg, isSet bool) isa.Reg

// Engine is the JavaScript engine.
type Engine struct {
	M *vm.Machine

	Funcs      []*Function
	funcByName map[string]int

	globalsAddr vmem.Addr
	globalIdx   map[string]int

	natives      []Native
	nativeByName map[string]int
	// Props handles member get/set (installed by the browser bindings).
	Props PropHandler

	strings   map[string]vmem.Addr
	strByAddr map[vmem.Addr]string

	parseFn, codegenFn, lazyFn *vm.Fn

	// TotalSrcBytes accumulates compiled script sizes (Table I denominator
	// contribution for JS).
	TotalSrcBytes int
	// Ops counts interpreted bytecode operations.
	Ops int
}

// NewEngine wires a JS engine to the machine.
func NewEngine(m *vm.Machine) *Engine {
	e := &Engine{
		M:            m,
		funcByName:   make(map[string]int),
		globalIdx:    make(map[string]int),
		nativeByName: make(map[string]int),
		strings:      make(map[string]vmem.Addr),
		strByAddr:    make(map[vmem.Addr]string),
		parseFn:      m.Func("v8::internal::Parser::ParseProgram", ns.V8),
		codegenFn:    m.Func("v8::internal::Interpreter::CompileBytecode", ns.V8),
		lazyFn:       m.Func("v8::internal::Compiler::GetSharedFunctionInfo", ns.V8),
	}
	e.globalsAddr = m.Heap.Alloc(4096 * 8)
	return e
}

// RegisterNative installs a builtin under a name. Method-style calls
// (obj.m(...)) resolve natives named "m:<prop>".
func (e *Engine) RegisterNative(name string, fn Native) {
	e.nativeByName[name] = len(e.natives)
	e.natives = append(e.natives, fn)
}

// InternString returns the traced heap address of an interned string
// (len u32 + bytes), writing it traced on first use.
func (e *Engine) InternString(s string) vmem.Addr {
	if a, ok := e.strings[s]; ok {
		return a
	}
	m := e.M
	a := m.Heap.Alloc(4 + len(s) + 1)
	m.StoreU32(a, m.Imm(uint64(len(s))))
	if len(s) > 0 {
		m.WriteData(a+4, []byte(s))
	}
	e.strings[s] = a
	e.strByAddr[a] = s
	return a
}

// StringAt returns the Go string for an interned address.
func (e *Engine) StringAt(a vmem.Addr) (string, bool) {
	s, ok := e.strByAddr[a]
	return s, ok
}

func (e *Engine) globalSlot(name string) int {
	if i, ok := e.globalIdx[name]; ok {
		return i
	}
	i := len(e.globalIdx)
	if i >= 4096 {
		panic("js: too many globals")
	}
	e.globalIdx[name] = i
	return i
}

// Compile parses the script and eagerly compiles every function plus the
// top-level code, like a load-time full codegen. The compile work is traced
// against the script's bytes at src, which is exactly the computation the
// paper finds wasted for the 40-60% of library code that never runs.
// Returns the index of the top-level function.
func (e *Engine) Compile(name string, src vmem.Range, source string) (int, error) {
	m := e.M
	script, err := ParseScript(source)
	if err != nil {
		return -1, fmt.Errorf("js: compile %s: %w", name, err)
	}
	e.TotalSrcBytes += len(source)

	// Pre-register function names so calls resolve in one pass.
	base := len(e.Funcs)
	for _, fd := range script.Funcs {
		f := &Function{
			Name: fd.Name, Params: fd.Params,
			SrcStart: fd.SrcStart, SrcEnd: fd.SrcEnd,
			Sym: m.Func("v8js::"+fd.Name, ns.V8),
		}
		e.funcByName[fd.Name] = len(e.Funcs)
		e.Funcs = append(e.Funcs, f)
	}
	top := &Function{
		Name: name + "::toplevel", SrcStart: 0, SrcEnd: len(source),
		Sym: m.Func("v8js::"+name+"::toplevel", ns.V8),
	}
	topIdx := len(e.Funcs)
	e.Funcs = append(e.Funcs, top)

	// Parse pass: traced scan of the whole script (the real parser touches
	// every byte).
	var acc isa.Reg
	m.Call(e.parseFn, func() {
		m.At("scan")
		acc = m.Imm(1)
		for c := 0; c < len(source); c += 8 {
			n := min(8, len(source)-c)
			chunk := m.Load(src.Addr+vmem.Addr(c), n)
			acc = m.Op(isa.OpOr, acc, chunk)
		}
	})

	// Codegen per function.
	for i, fd := range script.Funcs {
		f := e.Funcs[base+i]
		body := fd.Body
		if err := e.codegen(f, body, src, acc); err != nil {
			return -1, err
		}
	}
	if err := e.codegen(top, script.TopLevel, src, acc); err != nil {
		return -1, err
	}
	return topIdx, nil
}

// codegen compiles one function body and writes the bytecode/constant pool
// to traced memory, folding the parse accumulator into every stored word so
// the generated code provably derives from the script bytes.
func (e *Engine) codegen(f *Function, body []Stmt, src vmem.Range, acc isa.Reg) error {
	m := e.M
	c := &compiler{e: e, f: f, locals: map[string]int{}, top: isToplevelName(f.Name)}
	for i, p := range f.Params {
		c.locals[p] = i
	}
	c.numLocals = len(f.Params)
	for _, st := range body {
		if err := c.stmt(st); err != nil {
			return fmt.Errorf("js: %s: %w", f.Name, err)
		}
	}
	c.emit(word(opRet, 0, 0))
	f.NumLocals = c.numLocals
	f.Words = c.code
	f.Code = m.Heap.Alloc(len(c.code) * 4)
	f.Consts = m.Heap.Alloc(max(len(f.ConstVal), 1) * 8)

	m.Call(e.codegenFn, func() {
		// Re-scan the function's own source extent (lazy compilers touch a
		// function's bytes again at codegen).
		m.At("fscan")
		facc := acc
		if f.SrcEnd > f.SrcStart && f.SrcEnd <= int(src.Size) {
			for off := f.SrcStart; off < f.SrcEnd; off += 16 {
				n := min(16, f.SrcEnd-off)
				chunk := m.Load(src.Addr+vmem.Addr(off), n)
				facc = m.Op(isa.OpOr, facc, chunk)
			}
		}
		m.At("emit")
		for i, w := range c.code {
			v := m.Imm(uint64(w))
			v = m.Op(isa.OpXor, v, facc)
			v = m.Op(isa.OpXor, v, facc)
			m.StoreU32(f.Code+vmem.Addr(i*4), v)
		}
		m.At("pool")
		for i, cv := range f.ConstVal {
			v := m.Imm(cv)
			v = m.Op(isa.OpXor, v, facc)
			v = m.Op(isa.OpXor, v, facc)
			m.StoreU64(f.Consts+vmem.Addr(i*8), v)
		}
	})
	f.Compiled = true
	return nil
}

type compiler struct {
	e         *Engine
	f         *Function
	code      []uint32
	locals    map[string]int
	numLocals int
	// top marks top-level code: its var declarations define globals, as
	// script-scope vars do in JavaScript.
	top bool
}

func isToplevelName(name string) bool {
	const suffix = "::toplevel"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}

func (c *compiler) emit(w uint32) int {
	c.code = append(c.code, w)
	return len(c.code) - 1
}

func (c *compiler) patch(at int, target int) {
	c.code[at] = c.code[at]&0xFFFF | uint32(target)<<16
}

func (c *compiler) constant(v uint64, s string) int {
	c.f.ConstVal = append(c.f.ConstVal, v)
	c.f.constStr = append(c.f.constStr, s)
	return len(c.f.ConstVal) - 1
}

func (c *compiler) local(name string) (int, bool) {
	i, ok := c.locals[name]
	return i, ok
}

func (c *compiler) defineLocal(name string) int {
	if i, ok := c.locals[name]; ok {
		return i
	}
	i := c.numLocals
	c.locals[name] = i
	c.numLocals++
	return i
}

func (c *compiler) stmt(s Stmt) error {
	switch st := s.(type) {
	case *VarDecl:
		if err := c.expr(st.Init); err != nil {
			return err
		}
		if c.top {
			c.emit(word(opStoreG, 0, c.e.globalSlot(st.Name)))
		} else {
			c.emit(word(opStoreL, 0, c.defineLocal(st.Name)))
		}
	case *ExprStmt:
		if err := c.expr(st.X); err != nil {
			return err
		}
		c.emit(word(opPop, 0, 0))
	case *Return:
		if st.Value != nil {
			if err := c.expr(st.Value); err != nil {
				return err
			}
		} else {
			c.emit(word(opPushK, 0, c.constant(MakeValue(TagUndef, 0), "")))
		}
		c.emit(word(opRet, 1, 0))
	case *If:
		if err := c.expr(st.Cond); err != nil {
			return err
		}
		jz := c.emit(word(opJz, 0, 0))
		for _, t := range st.Then {
			if err := c.stmt(t); err != nil {
				return err
			}
		}
		if len(st.Else) > 0 {
			jmp := c.emit(word(opJmp, 0, 0))
			c.patch(jz, len(c.code))
			for _, t := range st.Else {
				if err := c.stmt(t); err != nil {
					return err
				}
			}
			c.patch(jmp, len(c.code))
		} else {
			c.patch(jz, len(c.code))
		}
	case *While:
		top := len(c.code)
		if err := c.expr(st.Cond); err != nil {
			return err
		}
		jz := c.emit(word(opJz, 0, 0))
		for _, t := range st.Body {
			if err := c.stmt(t); err != nil {
				return err
			}
		}
		c.emit(word(opJmp, 0, top))
		c.patch(jz, len(c.code))
	case *For:
		if st.Init != nil {
			if err := c.stmt(st.Init); err != nil {
				return err
			}
		}
		top := len(c.code)
		if err := c.expr(st.Cond); err != nil {
			return err
		}
		jz := c.emit(word(opJz, 0, 0))
		for _, t := range st.Body {
			if err := c.stmt(t); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := c.stmt(st.Post); err != nil {
				return err
			}
		}
		c.emit(word(opJmp, 0, top))
		c.patch(jz, len(c.code))
	default:
		return fmt.Errorf("unsupported statement %T", s)
	}
	return nil
}

var binOps = map[string]int{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"<": opLt, "<=": opLe, ">": opGt, ">=": opGe, "==": opEq, "!=": opNe,
}

func (c *compiler) expr(x Expr) error {
	switch ex := x.(type) {
	case *NumLit:
		c.emit(word(opPushK, 0, c.constant(MakeValue(TagInt, uint64(ex.Value)), "")))
	case *StrLit:
		a := c.e.InternString(ex.Value)
		c.emit(word(opPushK, 0, c.constant(MakeValue(TagStr, uint64(a)), ex.Value)))
	case *BoolLit:
		v := uint64(0)
		if ex.Value {
			v = 1
		}
		c.emit(word(opPushK, 0, c.constant(MakeValue(TagBool, v), "")))
	case *Ident:
		if i, ok := c.local(ex.Name); ok {
			c.emit(word(opLoadL, 0, i))
		} else if fi, ok := c.e.funcByName[ex.Name]; ok {
			c.emit(word(opPushK, 0, c.constant(MakeValue(TagFunc, uint64(fi)), ex.Name)))
		} else {
			c.emit(word(opLoadG, 0, c.e.globalSlot(ex.Name)))
		}
	case *Unary:
		if err := c.expr(ex.X); err != nil {
			return err
		}
		if ex.Op == "!" {
			c.emit(word(opNot, 0, 0))
		} else {
			c.emit(word(opNeg, 0, 0))
		}
	case *Binary:
		// Short-circuit && and || via jumps; other binaries are strict.
		if ex.Op == "&&" || ex.Op == "||" {
			if err := c.expr(ex.L); err != nil {
				return err
			}
			if ex.Op == "&&" {
				jz := c.emit(word(opJz, 0, 0))
				if err := c.expr(ex.R); err != nil {
					return err
				}
				jend := c.emit(word(opJmp, 0, 0))
				c.patch(jz, len(c.code))
				c.emit(word(opPushK, 0, c.constant(MakeValue(TagBool, 0), "")))
				c.patch(jend, len(c.code))
			} else {
				c.emit(word(opNot, 0, 0))
				jz := c.emit(word(opJz, 0, 0))
				if err := c.expr(ex.R); err != nil {
					return err
				}
				jend := c.emit(word(opJmp, 0, 0))
				c.patch(jz, len(c.code))
				c.emit(word(opPushK, 0, c.constant(MakeValue(TagBool, 1), "")))
				c.patch(jend, len(c.code))
			}
			return nil
		}
		if err := c.expr(ex.L); err != nil {
			return err
		}
		if err := c.expr(ex.R); err != nil {
			return err
		}
		op, ok := binOps[ex.Op]
		if !ok {
			return fmt.Errorf("unsupported operator %q", ex.Op)
		}
		c.emit(word(op, 0, 0))
	case *Assign:
		if err := c.expr(ex.Value); err != nil {
			return err
		}
		switch t := ex.Target.(type) {
		case *Ident:
			if i, ok := c.local(t.Name); ok {
				c.emit(word(opStoreL, 0, i))
			} else {
				c.emit(word(opStoreG, 0, c.e.globalSlot(t.Name)))
			}
			// Assignment is an expression; re-push the value.
			if i, ok := c.local(t.Name); ok {
				c.emit(word(opLoadL, 0, i))
			} else {
				c.emit(word(opLoadG, 0, c.e.globalSlot(t.Name)))
			}
		case *Member:
			if err := c.expr(t.Obj); err != nil {
				return err
			}
			c.emit(word(opSetProp, 0, c.constant(MakeValue(TagStr, uint64(c.e.InternString(t.Prop))), t.Prop)))
		default:
			return fmt.Errorf("bad assignment target %T", ex.Target)
		}
	case *Member:
		if err := c.expr(ex.Obj); err != nil {
			return err
		}
		c.emit(word(opGetProp, 0, c.constant(MakeValue(TagStr, uint64(c.e.InternString(ex.Prop))), ex.Prop)))
	case *Call:
		switch callee := ex.Callee.(type) {
		case *Ident:
			if fi, ok := c.e.funcByName[callee.Name]; ok {
				for _, a := range ex.Args {
					if err := c.expr(a); err != nil {
						return err
					}
				}
				c.emit(word(opCall, len(ex.Args), fi))
				return nil
			}
			if ni, ok := c.e.nativeByName[callee.Name]; ok {
				for _, a := range ex.Args {
					if err := c.expr(a); err != nil {
						return err
					}
				}
				c.emit(word(opNCall, len(ex.Args), ni))
				return nil
			}
			return fmt.Errorf("call to unknown function %q", callee.Name)
		case *Member:
			// obj.m(args): receiver is arg0, native "m:<prop>".
			ni, ok := c.e.nativeByName["m:"+callee.Prop]
			if !ok {
				return fmt.Errorf("unknown method %q", callee.Prop)
			}
			if err := c.expr(callee.Obj); err != nil {
				return err
			}
			for _, a := range ex.Args {
				if err := c.expr(a); err != nil {
					return err
				}
			}
			c.emit(word(opNCall, len(ex.Args)+1, ni))
			return nil
		default:
			return fmt.Errorf("uncallable expression %T", ex.Callee)
		}
	default:
		return fmt.Errorf("unsupported expression %T", x)
	}
	return nil
}
