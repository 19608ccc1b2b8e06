// Package browser assembles the full simulated rendering engine — network,
// HTML, CSS, JavaScript, layout, paint, compositing, raster, scheduling,
// IPC, and debug bookkeeping — and drives complete page-load and browsing
// sessions on the traced machine, producing the instruction traces the
// profiler analyzes. The pipeline follows the paper's Figure 1: DOM ←
// HTML parse, CSSOM ← CSS parse, JavaScript execution mutating both, then
// render tree → layout → paint → compositing.
package browser

import (
	"fmt"

	"webslice/internal/browser/compositor"
	"webslice/internal/browser/css"
	"webslice/internal/browser/debuglog"
	"webslice/internal/browser/dom"
	"webslice/internal/browser/html"
	"webslice/internal/browser/ipc"
	"webslice/internal/browser/js"
	"webslice/internal/browser/layout"
	"webslice/internal/browser/net"
	"webslice/internal/browser/ns"
	"webslice/internal/browser/paint"
	"webslice/internal/browser/raster"
	"webslice/internal/browser/sched"
	"webslice/internal/content"
	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// RenderVersion names the traces this renderer produces. Bump it in any
// change that alters a rendered trace of any site or seed — in the browser,
// the VM, the site generators, or the trace digest itself. A site or seed
// job's JobKey names it, and every store key of the job derives from that,
// so a bump orphans the forward passes and results of older renders instead
// of serving them. The golden corpus pins it beside each golden site's
// trace digest, and `webslice verify` fails when a trace changes while this
// constant does not.
const RenderVersion = 1

// Thread IDs, matching Chromium's renderer thread roles.
const (
	MainThread       uint8 = 0
	CompositorThread uint8 = 1
	IOThread         uint8 = 2
	RasterThreadBase uint8 = 3
)

// Profile is the calibration knob set for a workload (see internal/sites).
type Profile struct {
	// RasterWorkers is how many CompositorTileWorker threads to launch
	// (the paper saw 3 for Amazon desktop, 2 elsewhere).
	RasterWorkers int
	// DebugVerbosity scales debug bookkeeping per pipeline event.
	DebugVerbosity int
	// IPCPayload is the byte size of periodic renderer→browser messages.
	IPCPayload int
	// FrameOverhead scales per-frame compositor management work.
	FrameOverhead int
	// PrepaintFactor is how many extra viewport-heights are rastered
	// speculatively.
	PrepaintFactor int
	// IdleFrames is how many 60 Hz BeginFrame ticks run after load
	// (animation/management time with no content change).
	IdleFrames int
	// PoolWorkers is how many ThreadPoolForegroundWorker threads run image
	// decodes and other background work.
	PoolWorkers int
	// NetWastePasses scales the IO thread's cache/checksum bookkeeping.
	NetWastePasses int
	// DecodeWastePasses scales post-decode color-management passes.
	DecodeWastePasses int
	// GCSweeps is how many heap-sweep passes V8's GC runs after load.
	GCSweeps int
}

// DefaultProfile returns reasonable middle-ground knobs.
func DefaultProfile() Profile {
	return Profile{
		RasterWorkers:     2,
		DebugVerbosity:    2,
		IPCPayload:        256,
		FrameOverhead:     1,
		PrepaintFactor:    2,
		IdleFrames:        30,
		PoolWorkers:       1,
		NetWastePasses:    1,
		DecodeWastePasses: 1,
		GCSweeps:          1,
	}
}

// Browser is one simulated tab process.
type Browser struct {
	M *vm.Machine
	S *sched.Scheduler

	Site    *content.Site
	Profile Profile

	Loader *net.Loader
	IPC    *ipc.Channel
	Debug  *debuglog.Log
	DOM    *dom.Tree
	Parser *html.Parser
	CSS    *css.Engine
	Styles *css.Resolver
	Layout *layout.Engine
	Paint  *paint.Painter
	Comp   *compositor.Compositor
	Raster *raster.Rasterizer
	JS     *js.Engine

	// LoadedIndex is the trace index at which the page finished loading
	// (first full frame presented) — the cut point for the paper's partial
	// Bing experiment and the load/browse boundary of Table I.
	LoadedIndex int
	// LoadedCycle is the virtual time of that moment.
	LoadedCycle uint64

	damaged    map[*dom.Node]bool
	rootDamage bool
	inline     map[*dom.Node][]inlineProp
	// inlineOrder fixes the iteration order of b.inline: re-applying the
	// overrides emits trace records, and map iteration order would make
	// otherwise-identical renders produce different traces.
	inlineOrder []*dom.Node

	htmlRes     *html.Result
	nextRaster  int
	pendingCode int
	pendingImgs int
	scriptQueue []*pendingScript
	scriptNext  int
	firstPaint  bool
	loaded      bool
	loadDone    func()
	poolThreads []uint8
	nextPool    int

	hitTestFn, dispatchFn, updateFn, gcFn, brokenImgFn *vm.Fn

	// Errors collects non-fatal pipeline errors (JS failures etc.).
	Errors []error
	// Degraded lists resources whose fetch ultimately failed and around
	// which the engine degraded gracefully (stylesheet skipped, script
	// skipped, image replaced by a placeholder box).
	Degraded []string
}

// New builds a browser for a site. The traced machine, threads, and all
// engine components are created fresh.
func New(site *content.Site, profile Profile) *Browser {
	m := vm.New()
	m.Thread(MainThread, "CrRendererMain")
	m.Thread(CompositorThread, "Compositor")
	m.Thread(IOThread, "Chrome_ChildIOThread")
	var rasterThreads []uint8
	for i := 0; i < profile.RasterWorkers; i++ {
		tid := RasterThreadBase + uint8(i)
		m.Thread(tid, fmt.Sprintf("CompositorTileWorker%d", i+1))
		rasterThreads = append(rasterThreads, tid)
	}
	var poolThreads []uint8
	for i := 0; i < profile.PoolWorkers; i++ {
		tid := RasterThreadBase + uint8(profile.RasterWorkers) + uint8(i)
		m.Thread(tid, fmt.Sprintf("ThreadPoolForegroundWorker%d", i+1))
		poolThreads = append(poolThreads, tid)
	}
	m.Switch(MainThread)

	s := sched.New(m)
	b := &Browser{
		M:           m,
		S:           s,
		Site:        site,
		Profile:     profile,
		IPC:         ipc.NewChannel(m),
		Debug:       debuglog.New(m, profile.DebugVerbosity),
		DOM:         dom.NewTree(m),
		Parser:      html.NewParser(m),
		CSS:         css.NewEngine(m),
		JS:          js.NewEngine(m),
		Raster:      raster.New(m),
		damaged:     map[*dom.Node]bool{},
		inline:      map[*dom.Node][]inlineProp{},
		hitTestFn:   m.Func("blink::EventHandler::HitTestResultAtLocation", ""),
		dispatchFn:  m.Func("blink::EventDispatcher::Dispatch", ""),
		updateFn:    m.Func("blink::LocalFrameView::UpdateLifecyclePhases", ns.Layout),
		gcFn:        m.Func("v8::internal::Heap::CollectGarbage", ns.V8),
		brokenImgFn: m.Func("blink::ImageResourceContent::NotifyDecodeError", ns.NetError),
		poolThreads: poolThreads,
	}
	b.Loader = net.NewLoader(m, s, site, IOThread)
	b.Loader.WastePasses = max(profile.NetWastePasses, 0)
	b.Comp = compositor.New(m, s, CompositorThread, rasterThreads, site.ViewportW, site.ViewportH)
	b.Comp.PrepaintFactor = profile.PrepaintFactor
	b.Comp.FrameOverhead = profile.FrameOverhead
	b.Comp.Raster = b.Raster.RasterTile
	b.Raster.WastePasses = profile.DecodeWastePasses
	s.OnDispatch = func() {
		b.Debug.Histogram(uint64(s.Dispatched))
	}
	b.registerNatives()
	return b
}

// Load navigates to the site URL and runs the scheduler until the first
// frame is presented and all load-time work has drained. onLoaded (optional)
// fires right after the first frame.
func (b *Browser) Load(onLoaded func()) {
	b.loadDone = onLoaded
	m := b.M
	m.Switch(MainThread)
	b.IPC.Send("FrameHostMsg_DidStartLoading", 64)
	b.Debug.TraceEvent(0x10AD)
	// 60 Hz BeginFrame ticks run from navigation on; most of their cost
	// materializes once the first layer tree is committed.
	b.scheduleIdleFrames()
	b.Loader.Fetch(b.Site.URL, func(resp net.Response) {
		b.onHTML(resp)
	})
	b.S.Run()
}

// onHTML parses the main document and kicks off subresource fetches.
func (b *Browser) onHTML(resp net.Response) {
	doc, _ := b.Site.Get(b.Site.URL)
	if doc == nil || !resp.OK() || resp.Body.Size == 0 {
		// The main document is the one resource the engine cannot degrade
		// around: without it there is nothing to render.
		b.Errors = append(b.Errors, fmt.Errorf("browser: no document for %s (status %d)", b.Site.URL, resp.Status))
		return
	}
	body := resp.Body
	b.Debug.Histogram(uint64(body.Size))
	b.htmlRes = b.Parser.Parse(b.DOM, body, string(doc.Body))
	b.IPC.Send("FrameHostMsg_DidFinishDocumentLoad", b.Profile.IPCPayload)

	// Inline styles parse immediately; external ones fetch.
	for _, st := range b.htmlRes.Styles {
		if st.Inline != "" {
			b.CSS.Parse(st.Src, st.Inline)
		} else if st.URL != "" {
			b.pendingCode++
			url := st.URL
			b.Loader.Fetch(url, func(resp net.Response) {
				if r, ok := b.Site.Get(url); ok && resp.OK() && resp.Body.Size > 0 {
					b.CSS.Parse(resp.Body, string(r.Body))
				} else if !resp.OK() {
					// Render without the stylesheet rather than aborting
					// the load.
					b.degrade("stylesheet", url, resp)
				}
				b.backgroundCleanup(resp.Body)
				b.codeDone()
			})
		}
	}
	// Scripts: fetch external ones concurrently but compile+run strictly in
	// document order (parser-blocking execution order). A script delayed by
	// retries must not let a later script that references its functions
	// compile first, so arrivals queue until every earlier script settled.
	for i := range b.htmlRes.Scripts {
		sc := &b.htmlRes.Scripts[i]
		if sc.Inline != "" && sc.Inline != "\x00pending" {
			b.compileAndRun("inline", sc.Src, sc.Inline)
		} else if sc.URL != "" {
			b.pendingCode++
			ps := &pendingScript{url: sc.URL}
			b.scriptQueue = append(b.scriptQueue, ps)
			url := sc.URL
			b.Loader.Fetch(url, func(resp net.Response) {
				ps.settled = true
				if r, ok := b.Site.Get(url); ok && resp.OK() && resp.Body.Size > 0 {
					ps.ok, ps.body, ps.src = true, resp.Body, string(r.Body)
				} else if !resp.OK() {
					// Skip the failed script without aborting the load.
					b.degrade("script", url, resp)
				}
				b.backgroundCleanup(resp.Body)
				b.pumpScripts()
			})
		}
	}
	// Images: fetch, then decode on a raster worker.
	for i := range b.htmlRes.Images {
		im := b.htmlRes.Images[i]
		if im.URL == "" || im.Node == nil {
			continue
		}
		res, ok := b.Site.Get(im.URL)
		if !ok {
			continue
		}
		b.pendingImgs++
		node := im.Node
		url := im.URL
		b.Loader.Fetch(url, func(resp net.Response) {
			if !resp.OK() {
				// Paint a placeholder box where the image would have been.
				b.degrade("image", url, resp)
				b.markImageBroken(node)
				b.rootDamage = true
				b.imageDone()
				return
			}
			if resp.Body.Size == 0 {
				b.imageDone()
				return
			}
			rng := resp.Body
			b.backgroundCleanup(rng)
			worker := b.rasterThread()
			b.S.Post(worker, ns.Skia+"!ImageDecodeTask", func() {
				w, h := res.W, res.H
				if w == 0 {
					w, h = 64, 64
				}
				dec := b.Raster.Decode(rng, w, h)
				m := b.M
				m.StoreU32(node.Addr+dom.OffImage, m.Imm(uint64(dec.Addr)))
				m.StoreU32(node.Addr+dom.OffImageLen, m.Imm(uint64(dec.Size)))
				m.StoreU32(node.Addr+dom.OffImageState, m.Imm(dom.ImageReady))
				b.S.Post(MainThread, ns.Net+"!ImageResourceContent::UpdateImage", func() {
					b.rootDamage = true
					b.imageDone()
				})
			})
		})
	}
	if b.pendingCode == 0 {
		b.codeDone()
	}
}

// pendingScript is one external script awaiting in-order execution.
type pendingScript struct {
	url     string
	settled bool
	ok      bool
	body    vmem.Range
	src     string
}

// pumpScripts executes every settled script at the head of the document-order
// queue. Scripts fetch concurrently, but one delayed by retries holds back
// all later scripts until it settles (succeeds or exhausts its retry budget),
// so cross-script references still resolve under network faults.
func (b *Browser) pumpScripts() {
	for b.scriptNext < len(b.scriptQueue) && b.scriptQueue[b.scriptNext].settled {
		ps := b.scriptQueue[b.scriptNext]
		b.scriptNext++
		if ps.ok {
			b.compileAndRun(ps.url, ps.body, ps.src)
		}
		b.codeDone()
	}
}

// codeDone fires when a CSS/JS resource settles; the first paint happens as
// soon as all code is in (images stream in afterwards, as real pages do).
func (b *Browser) codeDone() {
	if b.pendingCode > 0 {
		b.pendingCode--
	}
	b.Debug.Histogram(uint64(b.pendingCode))
	if b.pendingCode > 0 {
		return
	}
	if b.pendingImgs == 0 {
		b.renderPipeline(true)
	} else if !b.firstPaint {
		b.firstPaint = true
		b.renderPipeline(false)
	}
}

// imageDone fires per image; the page is "completely loaded" (the paper's
// load boundary) when the last image has been decoded and re-rastered.
func (b *Browser) imageDone() {
	b.pendingImgs--
	b.Debug.Histogram(uint64(b.pendingImgs))
	if b.pendingImgs == 0 && b.pendingCode == 0 {
		b.renderPipeline(true)
	}
}

// degrade records a resource failure the engine rendered around: the note
// lands in Degraded (not Errors — the load still completes) and is surfaced
// through the traced debug log, as Chromium logs failed fetches to the
// console.
func (b *Browser) degrade(kind, url string, resp net.Response) {
	b.Degraded = append(b.Degraded,
		fmt.Sprintf("%s %s failed (status %d after %d attempts); rendered without it", kind, url, resp.Status, resp.Attempts))
	b.Debug.TraceEvent(0xDE6D)
	b.Debug.Histogram(uint64(resp.Attempts))
}

// markImageBroken flags an img node whose fetch failed so paint draws the
// placeholder box (traced store: the placeholder's provenance includes the
// error path that caused it).
func (b *Browser) markImageBroken(n *dom.Node) {
	m := b.M
	m.Call(b.brokenImgFn, func() {
		m.At("broken")
		m.StoreU32(n.Addr+dom.OffImageState, m.Imm(dom.ImageBroken))
	})
}

// compileAndRun eagerly compiles a script (traced against its source bytes)
// and executes its top level on the main thread.
func (b *Browser) compileAndRun(name string, src vmem.Range, source string) {
	top, err := b.JS.Compile(name, src, source)
	if err != nil {
		b.Errors = append(b.Errors, err)
		return
	}
	if _, err := b.JS.CallByIndex(top, nil); err != nil {
		b.Errors = append(b.Errors, err)
	}
	b.Debug.TraceEvent(0x15C7)
}

// renderPipeline runs style → layout → paint on the main thread and commits
// to the compositor. When firstLoad is set, the presented frame marks the
// page as loaded.
func (b *Browser) renderPipeline(firstLoad bool) {
	m := b.M
	m.Call(b.updateFn, func() {
		if b.Styles == nil {
			b.Styles = css.NewResolver(b.CSS)
		}
		b.Styles.Resolve(b.DOM, b.DOM.Elements())
		b.applyInlineStyles()
		if b.Layout == nil {
			b.Layout = layout.NewEngine(m, b.Styles)
		}
		b.Layout.Layout(b.DOM, b.Site.ViewportW)
		if b.Paint == nil {
			b.Paint = paint.NewPainter(m, b.Styles, b.Layout)
		}
	})
	layers := b.Paint.Paint(b.DOM, b.Site.ViewportW)
	b.Debug.Histogram(uint64(len(layers)))
	b.IPC.Send("ViewHostMsg_UpdateState", b.Profile.IPCPayload)

	damagedSet := b.damaged
	rootDmg := b.rootDamage || firstLoad
	// A damaged node that does not own a compositor layer invalidates the
	// layer it paints into — the root, for our layer assignment.
	layerOwners := map[*dom.Node]bool{}
	for _, l := range layers {
		if l.Node != nil {
			layerOwners[l.Node] = true
		}
	}
	for n := range damagedSet {
		if !layerOwners[n] {
			rootDmg = true
		}
	}
	b.damaged = map[*dom.Node]bool{}
	b.rootDamage = false

	b.S.Post(CompositorThread, ns.CC+"!LayerTreeHost::Commit", func() {
		b.Comp.CommitDiff(layers, func(l *paint.Layer) bool {
			if l.Node == nil {
				return rootDmg
			}
			return rootDmg || damagedSet[l.Node] || l.Meta == 0
		}, func() {
			b.Comp.Draw()
			if firstLoad && !b.loaded {
				b.loaded = true
				b.LoadedIndex = len(m.Tr.Recs)
				b.LoadedCycle = m.Cycle()
				b.IPC.Send("FrameHostMsg_DidStopLoading", 64)
				b.scheduleGC()
				if b.loadDone != nil {
					b.loadDone()
				}
			}
		})
	})
}

// scheduleIdleFrames ticks the compositor at 60 Hz for the profile's idle
// window — pure management work with no content change.
func (b *Browser) scheduleIdleFrames() {
	for i := 1; i <= b.Profile.IdleFrames; i++ {
		b.S.PostDelayed(CompositorThread, ns.CC+"!Scheduler::BeginFrame",
			uint64(i)*sched.FrameIntervalCycles, func() {
				b.Comp.BeginFrame()
				b.IPC.Send("cc.mojom.DidNotProduceFrame", b.Profile.IPCPayload)
			})
	}
}

// Browse runs the site's interaction session after load.
func (b *Browser) Browse() {
	at := b.M.Cycle()
	for _, a := range b.Site.Session {
		at += uint64(a.ThinkMs) * sched.CyclesPerMs
		b.scheduleAction(a, at)
	}
	// Browse-time resource downloads (Table I notes extra bytes arrive
	// while browsing Bing and Maps).
	for _, r := range b.Site.BrowseResources {
		res := r
		b.S.PostAt(MainThread, ns.Net+"!DeferredFetch", at/2, func() {
			b.Loader.FetchResource(res, func(resp net.Response) {
				if !resp.OK() {
					b.degrade("browse resource", res.URL, resp)
					return
				}
				if resp.Body.Size == 0 {
					return
				}
				switch res.Type {
				case content.JS:
					b.compileAndRun(res.URL, resp.Body, string(res.Body))
					if b.dirty() {
						b.renderPipeline(false)
					}
				case content.CSS:
					b.CSS.Parse(resp.Body, string(res.Body))
				}
			})
		})
	}
	b.S.Run()
}

func (b *Browser) dirty() bool { return len(b.damaged) > 0 || b.rootDamage }

func (b *Browser) scheduleAction(a content.Action, at uint64) {
	switch a.Kind {
	case content.Scroll:
		dy := a.DeltaY
		b.S.PostAt(CompositorThread, ns.CC+"!InputHandler::ScrollBy", at, func() {
			b.Comp.HandleScroll(dy, nil)
			b.Debug.Histogram(uint64(abs(dy)))
		})
	case content.Click:
		id := a.TargetID
		b.S.PostAt(CompositorThread, ns.CC+"!InputHandler::MouseDown", at, func() {
			// Non-scroll input: the compositor forwards to the main thread.
			b.IPC.Send("InputHostMsg_HandleInputEvent_ACK", 32)
			b.S.Post(MainThread, "blink!Input::DispatchMouseEvent", func() {
				b.dispatchClick(id)
			})
		})
	case content.TypeText:
		text := a.Text
		for i, r := range text {
			ch := r
			b.S.PostAt(CompositorThread, ns.CC+"!InputHandler::KeyDown",
				at+uint64(i*120)*sched.CyclesPerMs, func() {
					b.S.Post(MainThread, "blink!Input::DispatchKeyEvent", func() {
						b.dispatchKey(ch)
					})
				})
		}
	case content.Wait:
		// Pure think time: nothing scheduled; the gap appears as idle.
	}
}

// dispatchClick hit-tests the click target (traced box compares), then runs
// the element's registered JS handler and re-renders any damage.
func (b *Browser) dispatchClick(id string) {
	m := b.M
	target := b.DOM.ByID(id)
	if target == nil {
		return
	}
	m.Call(b.hitTestFn, func() {
		// Traced hit test: walk boxes comparing the click point.
		box := b.Layout.BoxOf(target)
		if box == nil {
			return
		}
		checked := 0
		for _, n := range b.DOM.Elements() {
			bx := b.Layout.BoxOf(n)
			if bx == nil {
				continue
			}
			checked++
			if checked > 64 {
				break
			}
			m.At("hittest")
			x := m.LoadU32(bx.Addr + 0)
			w := m.LoadU32(bx.Addr + 8)
			hit := m.Op(isa.OpCmpLE, x, m.Imm(uint64(box.X)))
			wide := m.Op(isa.OpCmpGE, w, m.Imm(1))
			both := m.Op(isa.OpAnd, hit, wide)
			if m.Branch(both) && n == target {
				break
			}
		}
	})
	m.Call(b.dispatchFn, func() {
		h := m.LoadU32(target.Addr + dom.OffHandler)
		has := m.OpImm(isa.OpCmpGT, h, 0)
		if m.Branch(has) {
			m.At("handler")
			idx := int(m.Val(h)) - 1
			elem := m.Imm(js.MakeValue(js.TagElem, uint64(target.Addr)))
			if _, err := b.JS.CallByIndex(idx, []isa.Reg{elem}); err != nil {
				b.Errors = append(b.Errors, err)
			}
		}
	})
	b.IPC.Send("FrameHostMsg_UpdateUserGestureCarryover", 32)
	if b.dirty() {
		b.renderPipeline(false)
	}
}

// dispatchKey routes a keystroke to the focused input (the site's element
// with id "q" or "search"): appends the character to its text (traced) and
// re-renders the damaged input.
func (b *Browser) dispatchKey(ch rune) {
	m := b.M
	target := b.DOM.ByID("q")
	if target == nil {
		target = b.DOM.ByID("search")
	}
	if target == nil {
		return
	}
	// Key handler JS, if registered.
	m.Call(b.dispatchFn, func() {
		h := m.LoadU32(target.Addr + dom.OffHandler)
		has := m.OpImm(isa.OpCmpGT, h, 0)
		if m.Branch(has) {
			idx := int(m.Val(h)) - 1
			elem := m.Imm(js.MakeValue(js.TagElem, uint64(target.Addr)))
			key := m.Imm(js.MakeValue(js.TagInt, uint64(ch)))
			if _, err := b.JS.CallByIndex(idx, []isa.Reg{elem, key}); err != nil {
				b.Errors = append(b.Errors, err)
			}
		}
	})
	// Update the input's text storage (traced append).
	newText := target.Text + string(ch)
	strAddr := b.JS.InternString(newText)
	b.DOM.SetTextRaw(target, strAddr+4, len(newText), newText)
	b.damaged[target] = true
	b.renderPipeline(false)
}

// RunSession performs a full load-and-browse session and returns the trace.
func (b *Browser) RunSession() {
	b.Load(nil)
	if len(b.Site.Session) > 0 {
		b.Browse()
	}
}

// poolThread picks the next ThreadPoolForegroundWorker round-robin (falls
// back to the first raster worker when the pool is empty).
func (b *Browser) poolThread() uint8 {
	if len(b.poolThreads) == 0 {
		return RasterThreadBase
	}
	t := b.poolThreads[b.nextPool%len(b.poolThreads)]
	b.nextPool++
	return t
}

// rasterThread picks the next CompositorTileWorker round-robin; image decode
// tasks run there, as in Chromium.
func (b *Browser) rasterThread() uint8 {
	t := b.Comp.RasterThreads[b.nextRaster%len(b.Comp.RasterThreads)]
	b.nextRaster++
	return t
}

// backgroundCleanup posts ThreadPool work for a delivered resource: cache
// compaction and metadata scans whose output nothing user-visible reads.
func (b *Browser) backgroundCleanup(rng vmem.Range) {
	if rng.Size == 0 {
		return
	}
	m := b.M
	b.S.Post(b.poolThread(), "base/threading!ThreadPool::CacheCompact", func() {
		sum := m.Imm(0)
		m.At("compact")
		n := int(rng.Size)
		for off := 0; off < n; off += 64 {
			c := min(64, n-off)
			v := m.Load(rng.Addr+vmem.Addr(off), c)
			sum = m.Op(isa.OpXor, sum, v)
		}
		m.StoreU64(m.IOb.Alloc(8), sum)
		b.Debug.Histogram(uint64(rng.Size))
	})
}

// scheduleGC posts V8 garbage-collection sweeps on the main thread: traced
// scans over the allocated heap with mark-bit bookkeeping. GC work rarely
// influences pixels, contributing to the paper's JavaScript waste category.
func (b *Browser) scheduleGC() {
	m := b.M
	used := b.M.Heap.Used()
	if used == 0 || b.Profile.GCSweeps <= 0 {
		return
	}
	for g := 0; g < b.Profile.GCSweeps; g++ {
		b.S.PostDelayed(MainThread, ns.V8+"!GCTask", uint64(g+1)*120*sched.CyclesPerMs, func() {
			m.Call(b.gcFn, func() {
				markBits := m.IOb.Alloc(used/512 + 8)
				m.At("sweep")
				for off := 0; off < used; off += 512 {
					v := m.Load(vmem.HeapBase+vmem.Addr(off), 64)
					live := m.OpImm(isa.OpCmpNE, v, 0)
					m.Store(markBits+vmem.Addr(off/512), 1, live)
				}
			})
		})
	}
}

// inlineProp is one JS inline-style override: the traced cell holding the
// value plus the computed-style slot it targets.
type inlineProp struct {
	prop string
	off  vmem.Addr
	size int
	cell vmem.Addr
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
