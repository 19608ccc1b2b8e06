package html

import (
	"testing"

	"webslice/internal/browser/dom"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func parse(t *testing.T, doc string) (*dom.Tree, *Result, *vm.Machine) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	tree := dom.NewTree(m)
	p := NewParser(m)
	buf := m.Heap.Alloc(len(doc) + 1)
	m.Mem.WriteBytes(buf, []byte(doc))
	res := p.Parse(tree, vmem.Range{Addr: buf, Size: uint32(len(doc))}, doc)
	return tree, res, m
}

func TestParseStructure(t *testing.T) {
	tree, res, m := parse(t, `<html><head><title>T</title></head>
<body class="page">
<div id="a" class="box">Hello</div>
<p>World <span>nested</span></p>
<img src="https://x/i.png">
</body></html>`)
	if res.Bytes == 0 {
		t.Error("byte count missing")
	}
	a := tree.ByID("a")
	if a == nil || a.Class != "box" || a.TagName != "div" {
		t.Fatalf("div#a wrong: %+v", a)
	}
	if len(a.Children) != 1 || a.Children[0].Text != "Hello" {
		t.Errorf("div#a children: %+v", a.Children)
	}
	if len(res.Images) != 1 || res.Images[0].URL != "https://x/i.png" {
		t.Errorf("images: %+v", res.Images)
	}
	// The traced id hash must equal the Go-side hash.
	got := m.Mem.ReadU64(a.Addr+dom.OffIDHash, 4)
	if uint32(got) != dom.Hash("a") {
		t.Errorf("traced id hash %#x != dom.Hash %#x", got, dom.Hash("a"))
	}
	got = m.Mem.ReadU64(a.Addr+dom.OffClassHash, 4)
	if uint32(got) != dom.Hash("box") {
		t.Errorf("traced class hash mismatch")
	}
	if err := m.Tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestScriptsAndStyles(t *testing.T) {
	_, res, _ := parse(t, `<html><head>
<link rel="stylesheet" href="https://x/a.css">
<style>.inline { color: red; }</style>
<script src="https://x/a.js"></script>
<script>var inline = 1;</script>
</head><body></body></html>`)
	if len(res.Styles) != 2 {
		t.Fatalf("styles: %+v", res.Styles)
	}
	if res.Styles[0].URL != "https://x/a.css" {
		t.Errorf("external style URL: %q", res.Styles[0].URL)
	}
	if res.Styles[1].Inline == "" {
		t.Error("inline style body missing")
	}
	if len(res.Scripts) != 2 {
		t.Fatalf("scripts: %+v", res.Scripts)
	}
	if res.Scripts[0].URL != "https://x/a.js" {
		t.Errorf("external script URL: %q", res.Scripts[0].URL)
	}
	if res.Scripts[1].Inline != "var inline = 1;" {
		t.Errorf("inline script body: %q", res.Scripts[1].Inline)
	}
}

func TestTextIsTracedFromSource(t *testing.T) {
	tree, _, m := parse(t, `<html><body><p>provenance</p></body></html>`)
	var text *dom.Node
	for _, n := range tree.All {
		if n.Type == dom.TextNode && n.Text == "provenance" {
			text = n
		}
	}
	if text == nil {
		t.Fatal("text node missing")
	}
	addr := vmem.Addr(m.Mem.ReadU64(text.Addr+dom.OffText, 4))
	length := int(m.Mem.ReadU64(text.Addr+dom.OffTextLen, 4))
	if got := string(m.Mem.ReadBytes(addr, length)); got != "provenance" {
		t.Errorf("traced text = %q", got)
	}
}

func TestVoidAndNesting(t *testing.T) {
	tree, _, _ := parse(t, `<html><body>
<div id="outer"><br><input><div id="inner">x</div></div>
<div id="after">y</div>
</body></html>`)
	outer, inner, after := tree.ByID("outer"), tree.ByID("inner"), tree.ByID("after")
	if outer == nil || inner == nil || after == nil {
		t.Fatal("nodes missing")
	}
	if inner.Parent != outer {
		t.Error("inner should nest under outer")
	}
	if after.Parent == outer {
		t.Error("after should not nest under outer (close tag handling)")
	}
}

func TestAttrParsing(t *testing.T) {
	attrs := parseAttrs(` id="a b" class="c" data-x=5 disabled`)
	if attrs["id"] != "a b" || attrs["class"] != "c" || attrs["data-x"] != "5" {
		t.Errorf("attrs = %v", attrs)
	}
	if _, ok := attrs["disabled"]; !ok {
		t.Errorf("bare attribute lost: %v", attrs)
	}
}
