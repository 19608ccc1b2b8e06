package css

import (
	"testing"

	"webslice/internal/browser/dom"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func parseSheet(t *testing.T, sheet string) (*vm.Machine, *Engine, *Sheet) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	e := NewEngine(m)
	buf := m.Heap.Alloc(len(sheet) + 1)
	m.Mem.WriteBytes(buf, []byte(sheet))
	s := e.Parse(vmem.Range{Addr: buf, Size: uint32(len(sheet))}, sheet)
	return m, e, s
}

func TestParseRules(t *testing.T) {
	_, _, s := parseSheet(t, `
.card { background: #ff0000; width: 120px; margin: 4px; }
#hero { height: 300px; z-index: 3; }
div { color: black; }
.menu .entry { padding: 2px; }
`)
	if len(s.Rules) != 4 {
		t.Fatalf("rules = %d", len(s.Rules))
	}
	card := s.Rules[0]
	if card.Sel.Class != dom.Hash("card") || card.Spec != 10 {
		t.Errorf("card selector wrong: %+v", card.Sel)
	}
	if len(card.Decls) != 3 || card.Decls[0].Prop != PropBackground || card.Decls[0].Value != 0xFFFF0000 {
		t.Errorf("card decls wrong: %+v", card.Decls)
	}
	hero := s.Rules[1]
	if hero.Sel.IDHash != dom.Hash("hero") || hero.Spec != 100 {
		t.Errorf("hero selector: %+v, spec %d", hero.Sel, hero.Spec)
	}
	if hero.Decls[1].Prop != PropZIndex || hero.Decls[1].Value != 103 {
		t.Errorf("z-index encoding: %+v", hero.Decls[1])
	}
	tag := s.Rules[2]
	if tag.Sel.Tag != dom.TagDiv || tag.Spec != 1 {
		t.Errorf("tag selector: %+v", tag.Sel)
	}
	desc := s.Rules[3]
	if desc.Sel.Ancestor != dom.Hash("menu") || desc.Sel.Class != dom.Hash("entry") {
		t.Errorf("descendant selector: %+v", desc.Sel)
	}
}

func TestValueParsing(t *testing.T) {
	cases := []struct {
		prop Prop
		val  string
		want uint32
	}{
		{PropDisplay, "none", DisplayNone},
		{PropDisplay, "inline", DisplayInline},
		{PropDisplay, "block", DisplayBlock},
		{PropPosition, "fixed", 3},
		{PropColor, "#112233", 0xFF112233},
		{PropColor, "transparent", 0},
		{PropWidth, "250px", 250},
		{PropOpacity, "0.5", 127},
	}
	for _, c := range cases {
		if got := parseValue(c.prop, c.val); got != c.want {
			t.Errorf("parseValue(%v, %q) = %#x, want %#x", c.prop, c.val, got, c.want)
		}
	}
}

func resolveOne(t *testing.T, sheet string, el *dom.Node, tree *dom.Tree, m *vm.Machine, e *Engine) vmem.Addr {
	t.Helper()
	r := NewResolver(e)
	r.Resolve(tree, tree.Elements())
	return r.StyleOf(el)
}

func TestCascadeSpecificityAndOrder(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	tree := dom.NewTree(m)
	e := NewEngine(m)
	el := tree.NewElement("div", "target", "card")
	tree.Append(tree.Doc, el)
	sheet := `
div { width: 10px; }
.card { width: 20px; }
.card { width: 25px; }
#target { width: 30px; }
.unrelated { width: 99px; }
`
	buf := m.Heap.Alloc(len(sheet))
	m.Mem.WriteBytes(buf, []byte(sheet))
	s := e.Parse(vmem.Range{Addr: buf, Size: uint32(len(sheet))}, sheet)
	style := resolveOne(t, sheet, el, tree, m, e)
	if style == 0 {
		t.Fatal("no style resolved")
	}
	if w := m.Mem.ReadU64(style+OffWidth, 4); w != 30 {
		t.Errorf("width = %d, want id rule (30) to win the cascade", w)
	}
	used := 0
	for _, r := range s.Rules {
		if r.Used {
			used++
		}
	}
	if used != 4 {
		t.Errorf("used rules = %d, want 4 (all but .unrelated)", used)
	}
	if s.UsedBytes() >= s.Bytes {
		t.Error("unused rule bytes must remain")
	}
}

func TestDefaultsAndLayerBit(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	tree := dom.NewTree(m)
	e := NewEngine(m)
	span := tree.NewElement("span", "", "")
	fixed := tree.NewElement("div", "f", "")
	tree.Append(tree.Doc, span)
	tree.Append(tree.Doc, fixed)
	sheet := `#f { position: fixed; top: 0px; }`
	buf := m.Heap.Alloc(len(sheet))
	m.Mem.WriteBytes(buf, []byte(sheet))
	e.Parse(vmem.Range{Addr: buf, Size: uint32(len(sheet))}, sheet)
	r := NewResolver(e)
	r.Resolve(tree, tree.Elements())

	spanStyle := r.StyleOf(span)
	if d := m.Mem.ReadU64(spanStyle+OffDisplay, 1); d != DisplayInline {
		t.Errorf("span default display = %d", d)
	}
	if fs := m.Mem.ReadU64(spanStyle+OffFontSize, 2); fs != 16 {
		t.Errorf("default font size = %d", fs)
	}
	fixedStyle := r.StyleOf(fixed)
	if hl := m.Mem.ReadU64(fixedStyle+OffHasLayer, 1); hl != 1 {
		t.Error("fixed-position element must promote to its own layer")
	}
	if hl := m.Mem.ReadU64(spanStyle+OffHasLayer, 1); hl != 0 {
		t.Error("plain span must not promote")
	}
}

func TestDescendantSelectorMatching(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	tree := dom.NewTree(m)
	e := NewEngine(m)
	menu := tree.NewElement("div", "", "menu")
	entry := tree.NewElement("div", "", "entry")
	stray := tree.NewElement("div", "", "entry")
	tree.Append(tree.Doc, menu)
	tree.Append(menu, entry)
	tree.Append(tree.Doc, stray)
	sheet := `.menu .entry { width: 77px; }`
	buf := m.Heap.Alloc(len(sheet))
	m.Mem.WriteBytes(buf, []byte(sheet))
	e.Parse(vmem.Range{Addr: buf, Size: uint32(len(sheet))}, sheet)
	r := NewResolver(e)
	r.Resolve(tree, tree.Elements())
	if w := m.Mem.ReadU64(r.StyleOf(entry)+OffWidth, 4); w != 77 {
		t.Errorf("descendant match failed: width = %d", w)
	}
	if w := m.Mem.ReadU64(r.StyleOf(stray)+OffWidth, 4); w == 77 {
		t.Error("stray .entry outside .menu must not match")
	}
}
