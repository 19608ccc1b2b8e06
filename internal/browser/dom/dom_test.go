package dom

import (
	"testing"
	"testing/quick"

	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func newTree(t *testing.T) (*vm.Machine, *Tree) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	return m, NewTree(m)
}

func TestTreeConstruction(t *testing.T) {
	m, tr := newTree(t)
	body := tr.NewElement("body", "", "page")
	tr.Append(tr.Doc, body)
	a := tr.NewElement("div", "a", "x")
	b := tr.NewElement("div", "b", "x")
	tr.Append(body, a)
	tr.Append(body, b)

	if tr.Count() != 4 {
		t.Errorf("Count = %d", tr.Count())
	}
	if tr.ByID("a") != a || tr.ByID("b") != b {
		t.Error("id index broken")
	}
	if tr.ByAddr(a.Addr) != a {
		t.Error("address index broken")
	}
	// Traced sibling/parent pointers must mirror the Go structure.
	if got := vmem.Addr(m.Mem.ReadU64(a.Addr+OffNextSib, 4)); got != b.Addr {
		t.Errorf("next-sibling pointer = %#x, want %#x", got, b.Addr)
	}
	if got := vmem.Addr(m.Mem.ReadU64(b.Addr+OffParent, 4)); got != body.Addr {
		t.Errorf("parent pointer wrong")
	}
	if got := vmem.Addr(m.Mem.ReadU64(body.Addr+OffFirstChild, 4)); got != a.Addr {
		t.Errorf("first-child pointer wrong")
	}
}

func TestTracedLookupMatchesGo(t *testing.T) {
	m, tr := newTree(t)
	for _, id := range []string{"alpha", "beta", "gamma"} {
		n := tr.NewElement("div", id, "")
		tr.Append(tr.Doc, n)
	}
	fn := m.Func("getElementById", "")
	node, reg := tr.LookupID(fn, "beta")
	if node == nil || node.ID != "beta" {
		t.Fatalf("lookup returned %+v", node)
	}
	if vmem.Addr(m.Val(reg)) != node.Addr {
		t.Errorf("traced lookup register %#x != node addr %#x", m.Val(reg), node.Addr)
	}
	miss, missReg := tr.LookupID(fn, "nope")
	if miss != nil || m.Val(missReg) != 0 {
		t.Error("missing id should return nil/0")
	}
}

func TestSetTextRaw(t *testing.T) {
	m, tr := newTree(t)
	n := tr.NewElement("span", "s", "")
	tr.Append(tr.Doc, n)
	src := m.Heap.Alloc(16)
	m.Mem.WriteBytes(src, []byte("updated!"))
	tr.SetTextRaw(n, src, 8, "updated!")
	addr := vmem.Addr(m.Mem.ReadU64(n.Addr+OffText, 4))
	if got := string(m.Mem.ReadBytes(addr, 8)); got != "updated!" {
		t.Errorf("text = %q", got)
	}
	if n.Text != "updated!" {
		t.Error("Go mirror not updated")
	}
}

func TestHashDeterministicAndSpread(t *testing.T) {
	if Hash("menu") == Hash("item") {
		t.Error("suspicious hash collision")
	}
	f := func(s string) bool { return Hash(s) == Hash(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagByName(t *testing.T) {
	if TagByName("div") != TagDiv || TagByName("img") != TagImg {
		t.Error("known tags wrong")
	}
	a, b := TagByName("custom-a"), TagByName("custom-b")
	if a == b {
		t.Error("distinct unknown tags collide")
	}
	if a < 0x100 {
		t.Error("unknown tags must hash above the known range")
	}
	if TagByName("custom-a") != a {
		t.Error("unknown tag ids must be stable")
	}
}
