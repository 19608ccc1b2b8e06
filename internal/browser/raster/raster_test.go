package raster

import (
	"testing"

	"webslice/internal/browser/compositor"
	"webslice/internal/browser/css"
	"webslice/internal/browser/dom"
	"webslice/internal/browser/layout"
	"webslice/internal/browser/paint"
	"webslice/internal/browser/sched"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// pipeline builds a minimal styled page and pushes it through paint,
// compositing, and rasterization (synchronously via the scheduler).
func pipeline(t *testing.T, sheet string) (*vm.Machine, *compositor.Compositor, *Rasterizer, *paint.Painter) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "compositor")
	m.Thread(3, "raster1")
	m.Switch(0)
	tree := dom.NewTree(m)
	body := tree.NewElement("body", "", "page")
	tree.Append(tree.Doc, body)
	hero := tree.NewElement("div", "hero", "hero")
	tree.Append(body, hero)
	promo := tree.NewElement("div", "promo", "promo")
	tree.Append(body, promo)
	txt := tree.NewTextFrom(vmem.Range{}, "")
	txt.Text = "visible words"
	m.StoreU32(txt.Addr+dom.OffTextLen, m.Const(uint64(len(txt.Text))))
	m.StoreU32(txt.Addr+dom.OffText, m.Const(uint64(m.Heap.Alloc(32))))
	tree.Append(hero, txt)

	e := css.NewEngine(m)
	buf := m.Heap.Alloc(len(sheet) + 1)
	m.Mem.WriteBytes(buf, []byte(sheet))
	e.Parse(vmem.Range{Addr: buf, Size: uint32(len(sheet))}, sheet)
	r := css.NewResolver(e)
	r.Resolve(tree, tree.Elements())
	le := layout.NewEngine(m, r)
	le.Layout(tree, 512)
	p := paint.NewPainter(m, r, le)
	layers := p.Paint(tree, 512)

	s := sched.New(m)
	comp := compositor.New(m, s, 1, []uint8{3}, 512, 512)
	rz := New(m)
	comp.Raster = rz.RasterTile
	done := false
	m.Switch(1)
	comp.CommitDiff(layers, func(*paint.Layer) bool { return true }, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("raster batch never completed")
	}
	return m, comp, rz, p
}

func TestPipelineProducesMarkedPixels(t *testing.T) {
	m, comp, rz, p := pipeline(t, `
.page { background: #ffffff; }
.hero { background: #336699; height: 200px; }
.promo { background: #cc0000; height: 100px; }`)
	if len(p.Layers) == 0 || comp.RasteredTiles == 0 {
		t.Fatal("nothing rastered")
	}
	if rz.MarkedTiles != comp.RasteredTiles {
		t.Errorf("every playback must plant a marker: %d vs %d", rz.MarkedTiles, comp.RasteredTiles)
	}
	// Rastered hero pixels: the hero rect starts at y=0 (first content row);
	// check a pixel inside it carries the low byte of its background.
	var heroTile *compositor.Tile
	for _, tl := range comp.Tiles {
		if tl.Layer.Node == nil && tl.Col == 0 && tl.Row == 0 {
			heroTile = tl
		}
	}
	if heroTile == nil {
		t.Fatal("root tile (0,0) missing")
	}
	px := m.Mem.ReadU64(heroTile.Buf.Addr+compositor.TileDim*50+10, 1)
	if px == 0 {
		t.Error("hero pixels not written")
	}
	if err := m.Tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLayerPromotionAndOcclusion(t *testing.T) {
	_, comp, _, p := pipeline(t, `
.page { background: #ffffff; }
.hero { position: fixed; top: 0px; left: 0px; width: 512px; height: 512px; background: #000000; z-index: 9; }
.promo { position: absolute; top: 0px; left: 0px; width: 512px; height: 256px; background: #cc0000; z-index: 1; }`)
	if len(p.Layers) < 3 {
		t.Fatalf("expected promoted layers, got %d", len(p.Layers))
	}
	// The promo layer sits entirely under the opaque fixed hero: its tiles
	// must be rastered (backing-store waste) but not visible.
	var promoVisible, promoTiles int
	for _, tl := range comp.Tiles {
		if tl.Layer.Node != nil && tl.Layer.Node.ID == "promo" {
			promoTiles++
			if tl.Visible {
				promoVisible++
			}
		}
	}
	if promoTiles == 0 {
		t.Fatal("occluded layer still needs a backing store (the paper's compositing pitfall)")
	}
	if promoVisible != 0 {
		t.Errorf("%d occluded tiles marked visible", promoVisible)
	}
}

func TestDecodeProvenance(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	rz := New(m)
	src := vmem.Range{Addr: m.IOb.Alloc(128), Size: 128}
	m.Mem.WriteBytes(src.Addr, make([]byte, 128))
	dec := rz.Decode(src, 32, 16)
	if dec.Size != 32*16 {
		t.Errorf("decoded size = %d", dec.Size)
	}
	if again := rz.Decode(src, 32, 16); again != dec {
		t.Error("decode cache miss on identical source")
	}
	if rz.Decoded[dec.Addr] != dec {
		t.Error("decoded buffer must be indexed by output address for draw-time lookup")
	}
}

func TestScrollExtendsTiling(t *testing.T) {
	m, comp, _, _ := pipeline(t, `
.page { background: #ffffff; }
.hero { height: 200px; background: #222222; }
.promo { height: 4000px; background: #dddddd; }`)
	before := len(comp.Tiles)
	m.Switch(1)
	comp.HandleScroll(1500, nil)
	// Drain the raster tasks the scroll scheduled.
	for comp.S.Pending() > 0 {
		comp.S.Run()
	}
	if len(comp.Tiles) <= before {
		t.Errorf("scroll should extend tilings: %d -> %d tiles", before, len(comp.Tiles))
	}
	if comp.ScrollY != 1500 {
		t.Errorf("ScrollY = %d", comp.ScrollY)
	}
}
