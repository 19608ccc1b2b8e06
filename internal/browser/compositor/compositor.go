// Package compositor implements the compositor thread: layer tree commits,
// 256×256 tiling with per-layer backing stores, occlusion and priority
// computation, raster scheduling onto worker threads, and frame draws that
// hand visible tiles to the display. It reproduces the design pitfall the
// paper calls out: every layer gets a backing store and is rastered whether
// or not it will ever be seen, so occluded and offscreen backing stores are
// pure waste, and most per-frame compositor management never influences a
// pixel — which is why the paper measures the compositor thread at only
// ~34-35% slice across all sites.
package compositor

import (
	"webslice/internal/browser/ns"
	"webslice/internal/browser/paint"
	"webslice/internal/browser/sched"
	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// TileDim is the tile edge in pixels; a tile backing store is one byte per
// pixel (indexed color), i.e. 64 KiB.
const TileDim = 256

// TileBytes is the backing-store size of one tile.
const TileBytes = TileDim * TileDim

// LayerMetaSize is the traced layer-metadata record size.
const LayerMetaSize = 32

// Layer metadata offsets (written by the compositor, read by rasterizers).
const (
	MetaX      = 0  // u32
	MetaY      = 4  // u32
	MetaZ      = 8  // u32 (z+100)
	MetaW      = 12 // u32
	MetaH      = 16 // u32
	MetaScroll = 20 // u32 applied scroll offset
)

// Tile is one backing-store tile of a layer.
type Tile struct {
	Layer    *paint.Layer
	Col, Row int
	Buf      vmem.Range
	// Meta is a traced record holding the tile's device origin, written at
	// tiling time and read by the rasterizer when computing pixel
	// addresses.
	Meta     vmem.Addr
	Rastered bool
	Visible  bool
}

// RasterFunc rasterizes one tile on a worker thread (provided by the raster
// package; indirection avoids a package cycle).
type RasterFunc func(t *Tile, done func())

// Compositor drives the compositing stage on its own thread.
type Compositor struct {
	M *vm.Machine
	S *sched.Scheduler

	Thread        uint8
	RasterThreads []uint8
	ViewportW     int
	ViewportH     int
	// PrepaintRows is how many viewport-heights beyond the visible area get
	// rastered speculatively (Chrome's prepaint; a waste knob).
	PrepaintFactor int
	// FrameOverhead scales the per-frame property-tree/occlusion busywork
	// (calibration knob for the compositor thread's instruction share).
	FrameOverhead int

	Raster RasterFunc

	Layers []*paint.Layer
	Tiles  []*Tile

	scrollCell vmem.Addr
	ScrollY    int

	commitFn, tileFn, occlFn, propFn, drawFn, prioFn, inputFn *vm.Fn

	nextRaster int
	// tiledRows tracks, per layer identity (owning node; nil = root), the
	// exclusive last tile row already created, so scrolling can extend
	// tilings incrementally.
	tiledRows map[interface{}]int
	// prevMeta/prevXY remember each layer identity's last committed
	// metadata record and origin: commits update property trees
	// incrementally from the previous (frame-updated) values, so the
	// 60 Hz BeginFrame work between commits is consumed by the next
	// commit's tilings and rasters.
	prevMeta map[interface{}]vmem.Addr
	prevXY   map[interface{}][2]int
	// Frames counts draws; RasteredTiles / DrawnTiles count work.
	Frames, RasteredTiles, DrawnTiles int
}

// New wires a compositor running on thread tid.
func New(m *vm.Machine, s *sched.Scheduler, tid uint8, rasterThreads []uint8, vw, vh int) *Compositor {
	return &Compositor{
		M:              m,
		S:              s,
		Thread:         tid,
		RasterThreads:  rasterThreads,
		ViewportW:      vw,
		ViewportH:      vh,
		PrepaintFactor: 2,
		FrameOverhead:  1,
		scrollCell:     m.Heap.Alloc(8),
		tiledRows:      make(map[interface{}]int),
		prevMeta:       make(map[interface{}]vmem.Addr),
		prevXY:         make(map[interface{}][2]int),
		commitFn:       m.Func("cc::LayerTreeHostImpl::CommitComplete", ns.CC),
		tileFn:         m.Func("cc::PictureLayerTiling::CreateTiles", ns.CC),
		occlFn:         m.Func("cc::OcclusionTracker::ComputeVisibleRegion", ns.CC),
		propFn:         m.Func("cc::draw_property_utils::ComputeDrawProperties", ns.CC),
		drawFn:         m.Func("cc::LayerTreeHostImpl::DrawLayers", ns.CC),
		prioFn:         m.Func("cc::TilePriority::ComputePriorityRect", ns.CC),
		inputFn:        m.Func("cc::InputHandlerProxy::HandleInputEvent", ns.CC),
	}
}

// CommitDiff receives the main thread's layer list: writes traced layer
// metadata, builds tilings, computes occlusion and priorities, and schedules
// rasterization. onAllRastered fires (on the compositor thread) when every
// scheduled tile has been rastered. Backing-store tiles of layers the damage
// predicate rejects are carried over from the previous commit (retargeted to
// the new layer objects), so only changed content re-rasters — Chromium's
// partial invalidation.
func (c *Compositor) CommitDiff(layers []*paint.Layer, damaged func(*paint.Layer) bool, onAllRastered func()) {
	m := c.M
	// Index surviving tiles by owning DOM node (nil = root layer).
	oldTiles := make(map[interface{}][]*Tile)
	for _, t := range c.Tiles {
		var key interface{}
		if t.Layer.Node != nil {
			key = t.Layer.Node
		}
		oldTiles[key] = append(oldTiles[key], t)
	}
	c.Layers = layers
	c.Tiles = nil
	m.Call(c.commitFn, func() {
		for _, l := range layers {
			key := layerKey(l)
			l.Meta = m.Heap.Alloc(LayerMetaSize)
			m.At("layermeta")
			if prev, ok := c.prevMeta[key]; ok {
				// Incremental property-tree update: the new origin derives
				// from the previous record (which every BeginFrame since the
				// last commit rewrote) plus the layout delta.
				pxy := c.prevXY[key]
				px := m.LoadU32(prev + MetaX)
				py := m.LoadU32(prev + MetaY)
				nx := m.OpImm(isa.OpAdd, px, uint64(uint32(l.X-pxy[0])))
				ny := m.OpImm(isa.OpAdd, py, uint64(uint32(l.Y-pxy[1])))
				m.StoreU32(l.Meta+MetaX, nx)
				m.StoreU32(l.Meta+MetaY, ny)
			} else {
				m.StoreU32(l.Meta+MetaX, m.Imm(uint64(l.X)))
				m.StoreU32(l.Meta+MetaY, m.Imm(uint64(l.Y)))
			}
			c.prevMeta[key] = l.Meta
			c.prevXY[key] = [2]int{l.X, l.Y}
			m.StoreU32(l.Meta+MetaZ, m.Imm(uint64(l.Z+100)))
			m.StoreU32(l.Meta+MetaW, m.Imm(uint64(l.W)))
			m.StoreU32(l.Meta+MetaH, m.Imm(uint64(l.H)))
			scroll := m.LoadU32(c.scrollCell)
			m.StoreU32(l.Meta+MetaScroll, scroll)
		}
	})
	m.Call(c.tileFn, func() {
		for _, l := range layers {
			key := layerKey(l)
			if olds, ok := oldTiles[key]; ok && !damaged(l) {
				// Reuse the backing store: retarget tiles at the new layer.
				for _, t := range olds {
					t.Layer = l
					c.Tiles = append(c.Tiles, t)
				}
				continue
			}
			c.tiledRows[key] = 0 // damaged layers re-tile from scratch
			c.tileLayer(l)
		}
	})
	c.computeOcclusion()
	c.prioritizeAndRaster(onAllRastered)
}

func layerKey(l *paint.Layer) interface{} {
	if l.Node != nil {
		return l.Node
	}
	return nil
}

// tileLayer creates the layer's backing-store tiles within the prepaint
// region (plus everything for small layers). Rows already created for this
// layer identity are skipped, so scroll-driven extension is incremental.
func (c *Compositor) tileLayer(l *paint.Layer) {
	m := c.M
	maxY := c.ViewportH * (1 + c.PrepaintFactor)
	cols := (l.W + TileDim - 1) / TileDim
	rows := (l.H + TileDim - 1) / TileDim
	maxRow := c.tiledRows[layerKey(l)]
	for r := 0; r < rows; r++ {
		// Prepaint cull: skip tiles far below the prepaint region (traced
		// compare against the layer origin).
		if l.Y+r*TileDim > maxY+c.ScrollY {
			continue
		}
		if r < maxRow {
			continue
		}
		if r+1 > c.tiledRows[layerKey(l)] {
			c.tiledRows[layerKey(l)] = r + 1
		}
		for col := 0; col < cols; col++ {
			m.At("tile")
			t := &Tile{Layer: l, Col: col, Row: r}
			t.Buf = vmem.Range{Addr: m.Tile.Alloc(TileBytes), Size: TileBytes}
			t.Meta = m.Heap.Alloc(16)
			// Device origin = layer origin + tile offset (traced from the
			// layer metadata so compositor work feeds raster addressing).
			lx := m.LoadU32(l.Meta + MetaX)
			ly := m.LoadU32(l.Meta + MetaY)
			ox := m.OpImm(isa.OpAdd, lx, uint64(col*TileDim))
			oy := m.OpImm(isa.OpAdd, ly, uint64(r*TileDim))
			m.StoreU32(t.Meta, ox)
			m.StoreU32(t.Meta+4, oy)
			m.StoreU32(t.Meta+8, m.Imm(uint64(t.Buf.Addr)))
			c.Tiles = append(c.Tiles, t)
		}
	}
}

// computeOcclusion recomputes tile visibility: a tile is visible if it
// intersects the viewport (after scroll for non-fixed layers) and is not
// fully covered by an opaque layer with a higher z placed later.
func (c *Compositor) computeOcclusion() {
	m := c.M
	m.Call(c.occlFn, func() {
		for _, t := range c.Tiles {
			m.At("occl")
			x0, y0 := c.tileDeviceOrigin(t)
			// Traced screen-intersection test against the viewport.
			ox := m.LoadU32(t.Meta)
			oy := m.LoadU32(t.Meta + 4)
			var yScr isa.Reg
			if t.Layer.Fixed {
				yScr = oy
			} else {
				scroll := m.LoadU32(c.scrollCell)
				yScr = m.Op(isa.OpSub, oy, scroll)
			}
			inX := m.OpImm(isa.OpCmpLT, ox, uint64(c.ViewportW))
			yTop := m.OpImm(isa.OpCmpGT, yScr, uint64(1<<31)) // negative as unsigned
			yLow := m.OpImm(isa.OpCmpLT, yScr, uint64(c.ViewportH))
			partial := m.OpImm(isa.OpCmpGE, m.Op(isa.OpAdd, yScr, m.Imm(TileDim)), 1)
			inY := m.Op(isa.OpAnd, m.Op(isa.OpOr, yLow, yTop), partial)
			vis := m.Op(isa.OpAnd, inX, inY)
			visible := m.Branch(vis)

			// Go-side mirror of the same test for orchestration.
			yScreen := y0
			if !t.Layer.Fixed {
				yScreen -= c.ScrollY
			}
			onScreen := x0 < c.ViewportW && yScreen < c.ViewportH && yScreen+TileDim > 0
			t.Visible = visible && onScreen && !c.occluded(t, x0, yScreen)
		}
	})
}

func (c *Compositor) tileDeviceOrigin(t *Tile) (int, int) {
	return t.Layer.X + t.Col*TileDim, t.Layer.Y + t.Row*TileDim
}

// occluded reports whether the tile rect is fully covered by an opaque layer
// drawn above it (traced rect compares).
func (c *Compositor) occluded(t *Tile, x, y int) bool {
	m := c.M
	for _, l := range c.Layers {
		if l == t.Layer || !l.Opaque {
			continue
		}
		if l.Z < t.Layer.Z || (l.Z == t.Layer.Z && l.ID <= t.Layer.ID) {
			continue
		}
		m.At("occtest")
		lx := m.LoadU32(l.Meta + MetaX)
		ly := m.LoadU32(l.Meta + MetaY)
		lw := m.LoadU32(l.Meta + MetaW)
		lh := m.LoadU32(l.Meta + MetaH)
		x2 := m.Op(isa.OpAdd, lx, lw)
		y2 := m.Op(isa.OpAdd, ly, lh)
		c1 := m.OpImm(isa.OpCmpLE, lx, uint64(x))
		c2 := m.OpImm(isa.OpCmpLE, ly, uint64(y+c.ScrollY))
		c3 := m.OpImm(isa.OpCmpGE, x2, uint64(x+TileDim))
		c4 := m.OpImm(isa.OpCmpGE, y2, uint64(y+c.ScrollY+TileDim))
		cov := m.Op(isa.OpAnd, m.Op(isa.OpAnd, c1, c2), m.Op(isa.OpAnd, c3, c4))
		if m.Branch(cov) {
			return true
		}
	}
	return false
}

// prioritizeAndRaster orders tiles by distance to the viewport (traced
// priority arithmetic) and posts raster tasks round-robin to the worker
// threads. Occluded and offscreen-but-prepainted tiles are rastered too —
// the backing-store waste the paper highlights.
func (c *Compositor) prioritizeAndRaster(onAllRastered func()) {
	m := c.M
	var pending []*Tile
	m.Call(c.prioFn, func() {
		for _, t := range c.Tiles {
			if t.Rastered {
				continue
			}
			m.At("prio")
			oy := m.LoadU32(t.Meta + 4)
			scroll := m.LoadU32(c.scrollCell)
			d := m.Op(isa.OpSub, oy, scroll)
			d = m.Op(isa.OpMax, d, m.Imm(0))
			m.StoreU32(t.Meta+12, d)
			pending = append(pending, t)
		}
	})
	if len(pending) == 0 {
		if onAllRastered != nil {
			onAllRastered()
		}
		return
	}
	// Completion is tracked per batch: overlapping commits (a first paint
	// still rastering when images trigger the next commit) must each fire
	// their own callback.
	remaining := len(pending)
	for _, t := range pending {
		tile := t
		worker := c.RasterThreads[c.nextRaster%len(c.RasterThreads)]
		c.nextRaster++
		c.S.Post(worker, ns.Skia+"!RasterTask", func() {
			c.Raster(tile, func() {
				c.S.Post(c.Thread, ns.CC+"!DidFinishRaster", func() {
					tile.Rastered = true
					c.RasteredTiles++
					remaining--
					if remaining == 0 && onAllRastered != nil {
						onAllRastered()
					}
				})
			})
		})
	}
}

// Draw presents a frame: per-frame property-tree update (the animation/
// management busywork), then quad generation over visible tiles and a
// display handoff whose syscall reads the visible tile buffers (the GPU
// consuming the backing stores).
func (c *Compositor) Draw() {
	m := c.M
	m.Call(c.propFn, func() {
		for i := 0; i < c.FrameOverhead; i++ {
			for _, l := range c.Layers {
				m.At("prop")
				z := m.LoadU32(l.Meta + MetaZ)
				w := m.LoadU32(l.Meta + MetaW)
				h := m.LoadU32(l.Meta + MetaH)
				area := m.Op(isa.OpMul, w, h)
				key := m.Op(isa.OpAdd, area, z)
				m.StoreU32(l.Meta+24, key)
			}
		}
	})
	m.Call(c.drawFn, func() {
		// Every rastered backing store is handed to the GPU process
		// (texture upload), whether or not its quads end up on screen — so
		// the syscall-based slicing criteria subsume the pixel-based ones,
		// as the paper argues in §IV-C. Only visible tiles also get quads.
		var reads []vmem.Range
		for _, t := range c.Tiles {
			if !t.Rastered {
				continue
			}
			if t.Visible {
				m.At("quad")
				buf := m.LoadU32(t.Meta + 8)
				ox := m.LoadU32(t.Meta)
				q := m.Op(isa.OpAdd, buf, ox)
				_ = q
				c.DrawnTiles++
			}
			reads = append(reads, t.Buf)
		}
		m.At("swap")
		if len(reads) > 0 {
			m.Syscall(isa.SysIoctl, isa.RegNone, isa.RegNone, reads, nil, nil)
		}
	})
	c.Frames++
}

// HandleScroll applies a compositor-thread scroll: updates the traced scroll
// cell, recomputes visibility, rasters newly exposed tiles, and draws.
func (c *Compositor) HandleScroll(dy int, done func()) {
	m := c.M
	m.Call(c.inputFn, func() {
		m.At("scroll")
		cur := m.LoadU32(c.scrollCell)
		d := m.Imm(uint64(int64(dy)))
		nv := m.Op(isa.OpAdd, cur, d)
		nv = m.Op(isa.OpMax, nv, m.Imm(0))
		m.StoreU32(c.scrollCell, nv)
		c.ScrollY = int(int32(uint32(m.Val(nv))))
	})
	// Scrolling down extends the tilings: newly exposed prepaint rows get
	// backing stores and raster tasks (their pixel addresses consume the
	// frame-updated layer metadata, which is how per-frame compositor work
	// becomes load-bearing).
	m.Call(c.tileFn, func() {
		for _, l := range c.Layers {
			if !l.Fixed {
				c.tileLayer(l)
			}
		}
	})
	c.computeOcclusion()
	c.prioritizeAndRaster(func() {
		c.Draw()
		if done != nil {
			done()
		}
	})
}

// BeginFrame runs one animation tick's management work without content
// changes, the recurring cost real pages pay at 60 Hz. The property-tree
// update rewrites each layer's draw metadata from its previous value — the
// chain the next rasterization consumes — so per-frame compositor work up to
// the last raster is genuinely load-bearing, while ticks after the final
// raster (and all damage-tracking bookkeeping) never reach a pixel. That
// split is what yields the paper's ~34% compositor slice.
func (c *Compositor) BeginFrame() {
	m := c.M
	m.Call(c.propFn, func() {
		for i := 0; i < c.FrameOverhead; i++ {
			// Property-tree recompute: layer origins pass through the
			// transform pipeline each tick (identity transform here), and
			// per-layer tile origins are refreshed from them.
			for _, l := range c.Layers {
				m.At("tick")
				// Transform/effect/clip tree walk: the layer origin passes
				// through a chain of identity transforms (real pages have
				// deep property trees); the result is written back, so the
				// next commit or raster consumes this frame's work.
				x := m.LoadU32(l.Meta + MetaX)
				y := m.LoadU32(l.Meta + MetaY)
				scroll := m.LoadU32(c.scrollCell)
				zero := m.Op(isa.OpSub, scroll, scroll)
				for d := 0; d < 12; d++ {
					m.At("xform")
					x = m.Op(isa.OpAdd, x, zero)
					y = m.Op(isa.OpAdd, y, zero)
				}
				m.StoreU32(l.Meta+MetaX, x)
				m.StoreU32(l.Meta+MetaY, y)
			}
			// Damage/priority bookkeeping visits a quarter of the tiles per
			// tick; its output feeds nothing user-visible.
			for ti, t := range c.Tiles {
				if (ti+int(c.Frames))%4 != 0 {
					continue
				}
				m.At("damage")
				d := m.LoadU32(t.Meta + 12)
				nd := m.OpImm(isa.OpAdd, d, 0)
				m.StoreU32(t.Meta+12, nd)
			}
		}
	})
	c.Frames++
}
