package layout

import (
	"testing"

	"webslice/internal/browser/css"
	"webslice/internal/browser/dom"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// buildPage assembles a small styled document and lays it out.
func buildPage(t *testing.T, sheet string) (*vm.Machine, *dom.Tree, *Engine) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	tree := dom.NewTree(m)
	body := tree.NewElement("body", "", "page")
	tree.Append(tree.Doc, body)
	hdr := tree.NewElement("div", "hdr", "bar")
	tree.Append(body, hdr)
	card := tree.NewElement("div", "card", "card")
	tree.Append(body, card)
	txt := tree.NewTextFrom(vmem.Range{}, "")
	txt.Text = "some flowing text"
	tree.Append(card, txt)
	hidden := tree.NewElement("div", "hidden", "gone")
	tree.Append(body, hidden)

	e := css.NewEngine(m)
	buf := m.Heap.Alloc(len(sheet) + 1)
	m.Mem.WriteBytes(buf, []byte(sheet))
	e.Parse(vmem.Range{Addr: buf, Size: uint32(len(sheet))}, sheet)
	r := css.NewResolver(e)
	r.Resolve(tree, tree.Elements())
	le := NewEngine(m, r)
	le.Layout(tree, 800)
	return m, tree, le
}

func TestBlockStacking(t *testing.T) {
	_, tree, le := buildPage(t, `
.bar { height: 50px; }
.card { height: 100px; margin: 10px; }
.gone { display: none; }`)
	hdr := le.BoxOf(tree.ByID("hdr"))
	card := le.BoxOf(tree.ByID("card"))
	if hdr == nil || card == nil {
		t.Fatal("boxes missing")
	}
	if hdr.H != 50 {
		t.Errorf("hdr height = %d", hdr.H)
	}
	if card.Y <= hdr.Y {
		t.Errorf("card (y=%d) must stack below hdr (y=%d)", card.Y, hdr.Y)
	}
	if card.X != 10 {
		t.Errorf("card margin not applied: x=%d", card.X)
	}
	if le.DocHeight < 160 {
		t.Errorf("DocHeight = %d", le.DocHeight)
	}
}

func TestDisplayNoneSkipsSubtree(t *testing.T) {
	_, tree, le := buildPage(t, `.gone { display: none; height: 500px; }`)
	if le.BoxOf(tree.ByID("hidden")) != nil {
		t.Error("display:none element must not get a box")
	}
}

func TestCSSWidthWins(t *testing.T) {
	m, tree, le := buildPage(t, `.card { width: 300px; }`)
	card := le.BoxOf(tree.ByID("card"))
	if card.W != 300 {
		t.Errorf("width = %d, want CSS 300", card.W)
	}
	// Traced box mirrors the Go mirror.
	if got := m.Mem.ReadU64(card.Addr+OffW, 4); got != 300 {
		t.Errorf("traced width = %d", got)
	}
}

func TestTextLinesScaleWithLength(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	tree := dom.NewTree(m)
	body := tree.NewElement("body", "", "")
	tree.Append(tree.Doc, body)
	short := tree.NewTextFrom(vmem.Range{}, "")
	short.Text = "hi"
	long := tree.NewTextFrom(vmem.Range{}, "")
	long.Text = "a much longer run of text that must wrap across multiple lines at narrow widths"
	// Store traced text lengths so layout sees them.
	m.StoreU32(short.Addr+dom.OffTextLen, m.Const(uint64(len(short.Text))))
	m.StoreU32(long.Addr+dom.OffTextLen, m.Const(uint64(len(long.Text))))
	tree.Append(body, short)
	tree.Append(body, long)
	e := css.NewEngine(m)
	r := css.NewResolver(e)
	r.Resolve(tree, tree.Elements())
	le := NewEngine(m, r)
	le.Layout(tree, 200)
	hs := le.BoxOf(short).H
	hl := le.BoxOf(long).H
	if hl <= hs {
		t.Errorf("long text (h=%d) should be taller than short (h=%d)", hl, hs)
	}
}
