package browser

import (
	"testing"

	"webslice/internal/content"
	"webslice/internal/core"
	"webslice/internal/isa"
	"webslice/internal/slicer"
)

// tinySite builds a small but complete site: HTML with styles, a used and an
// unused JS function, an image, a fixed header layer, and a click handler.
func tinySite() *content.Site {
	s := &content.Site{
		Name:      "tiny",
		URL:       "https://tiny.test/",
		ViewportW: 512,
		ViewportH: 384,
	}
	htmlBody := `<html><head>
<link rel="stylesheet" href="https://tiny.test/app.css">
<script src="https://tiny.test/app.js"></script>
</head>
<body class="page">
<div id="hdr" class="topbar">Site Header</div>
<div id="content" class="main">
<p>Hello rendered world, this is body text that flows.</p>
<img src="https://tiny.test/logo.png">
<button id="menu-btn" class="btn">Menu</button>
</div>
<div id="hidden-panel" class="panel">Invisible panel content</div>
<div id="footer" class="foot">Footer far below the fold</div>
</body></html>`
	s.Add(&content.Resource{URL: s.URL, Type: content.HTML, Body: []byte(htmlBody), LatencyMs: 40})
	appCSS := `.page { background: #ffffff; margin: 0; }
.topbar { position: fixed; top: 0; left: 0; height: 40; width: 512; background: #222222; color: white; z-index: 10; }
.main { padding: 8; background: #eeeeee; }
.btn { width: 80; height: 24; background: #4488ff; }
.panel { display: none; background: #ff0000; height: 600; }
.foot { margin: 4; height: 2000; background: #dddddd; }
.unused-a { color: red; padding: 3; }
.unused-b { border-width: 2; margin: 9; }
#no-such-id { background: black; height: 50; }`
	s.Add(&content.Resource{URL: "https://tiny.test/app.css", Type: content.CSS, Body: []byte(appCSS), LatencyMs: 30})
	appJS := `
function usedInit(doc) {
  var el = document.getElementById('content');
  var i = 0;
  var acc = 0;
  while (i < 20) { acc = acc + i * 3; i = i + 1; }
  el.style.background = 15790320;
  return acc;
}
function onMenuClick(el) {
  var panel = document.getElementById('hidden-panel');
  panel.style.display = 1;
  panel.textContent = 'now you see me';
  return 1;
}
function neverCalledHelper(x) {
  var t = 0;
  for (var j = 0; j < 100; j = j + 1) { t = t + j * j; }
  return t;
}
function anotherDeadFunction(a, b) {
  if (a > b) { return a - b; }
  return b - a;
}
var r = usedInit(0);
var btn = document.getElementById('menu-btn');
btn.addEventListener('click', onMenuClick);
`
	s.Add(&content.Resource{URL: "https://tiny.test/app.js", Type: content.JS, Body: []byte(appJS), LatencyMs: 35})
	s.Add(&content.Resource{URL: "https://tiny.test/logo.png", Type: content.Image,
		Body: make([]byte, 600), W: 64, H: 48, LatencyMs: 25})
	s.Session = []content.Action{
		{Kind: content.Scroll, DeltaY: 300, ThinkMs: 400},
		{Kind: content.Click, TargetID: "menu-btn", ThinkMs: 500},
	}
	return s
}

func loadTiny(t *testing.T, browse bool) *Browser {
	t.Helper()
	site := tinySite()
	p := DefaultProfile()
	p.IdleFrames = 5
	b := New(site, p)
	b.Load(nil)
	if browse {
		b.Browse()
	}
	for _, err := range b.Errors {
		t.Errorf("pipeline error: %v", err)
	}
	return b
}

func TestLoadProducesDOMAndPixels(t *testing.T) {
	b := loadTiny(t, false)
	if b.DOM.Count() < 10 {
		t.Errorf("DOM has only %d nodes", b.DOM.Count())
	}
	if b.DOM.ByID("menu-btn") == nil {
		t.Error("button missing from DOM")
	}
	if !b.loaded {
		t.Fatal("page never finished loading")
	}
	if b.LoadedIndex == 0 {
		t.Error("LoadedIndex not recorded")
	}
	if b.Comp.RasteredTiles == 0 {
		t.Error("nothing was rastered")
	}
	if b.Raster.MarkedTiles == 0 {
		t.Error("no pixel criteria markers planted")
	}
	if b.Comp.Frames == 0 {
		t.Error("no frames drawn")
	}
	sum := b.M.Tr.Summarize()
	if sum.Markers == 0 || sum.Syscalls == 0 {
		t.Errorf("trace missing side records: %+v", sum)
	}
	if err := b.M.Tr.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	// The trace must include work from every thread.
	for tid := uint8(0); tid < 3+uint8(b.Profile.RasterWorkers); tid++ {
		if sum.ByThread[tid] == 0 {
			t.Errorf("thread %d executed nothing", tid)
		}
	}
}

func TestUnusedJSDetected(t *testing.T) {
	b := loadTiny(t, false)
	var used, unused int
	for _, f := range b.JS.Funcs {
		if !f.Compiled {
			t.Errorf("function %s was not compiled (eager codegen expected)", f.Name)
		}
		if f.Executed {
			used++
		} else {
			unused++
		}
	}
	if unused < 2 {
		t.Errorf("expected the two dead functions to be unexecuted, got %d unused", unused)
	}
	if used < 2 {
		t.Errorf("expected usedInit and toplevel to run, got %d used", used)
	}
	// The click handler only becomes used after browsing.
	b2 := loadTiny(t, true)
	executed := false
	for _, f := range b2.JS.Funcs {
		if f.Name == "onMenuClick" {
			executed = f.Executed
		}
	}
	if !executed {
		t.Error("click handler should have executed during the browse session")
	}
}

func TestUnusedCSSDetected(t *testing.T) {
	b := loadTiny(t, false)
	var used, unused int
	for _, sh := range b.CSS.Sheets {
		for _, r := range sh.Rules {
			if r.Used {
				used++
			} else {
				unused++
			}
		}
	}
	if used < 5 {
		t.Errorf("expected most real rules to match, used=%d", used)
	}
	if unused < 3 {
		t.Errorf("expected the three unused rules to stay unused, unused=%d", unused)
	}
}

func TestPixelSliceOnTinySite(t *testing.T) {
	b := loadTiny(t, true)
	p := core.NewProfiler(b.M.Tr)
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	pct := res.Percent()
	if pct <= 5 || pct >= 95 {
		t.Fatalf("pixel slice percent = %.1f%%, expected an interior value", pct)
	}
	// Debug bookkeeping must be outside the slice.
	for i := range b.M.Tr.Recs {
		if b.M.Tr.Namespace(b.M.Tr.Recs[i].Func()) == "base/debug" && res.InSlice.Get(i) {
			t.Fatalf("debug record %d wrongly in pixel slice", i)
		}
	}
	// The page content (network input) must be in the slice: at least one
	// recvfrom joined.
	foundRecv := false
	for i, eff := range b.M.Tr.Sys {
		if eff.Num == isa.SysRecvfrom && res.InSlice.Get(i) {
			foundRecv = true
		}
	}
	if !foundRecv {
		t.Error("no network input joined the pixel slice; provenance chain broken")
	}
	t.Logf("tiny site: %d recs, pixel slice %.1f%%", res.Total, pct)
}

func TestSyscallSliceSuperset(t *testing.T) {
	b := loadTiny(t, false)
	p := core.NewProfiler(b.M.Tr)
	pix, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := p.Slice(slicer.SyscallCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for i := 0; i < pix.Total; i++ {
		if pix.InSlice.Get(i) && !sys.InSlice.Get(i) {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d pixel-slice records missing from syscall slice", missing)
	}
	if sys.SliceCount < pix.SliceCount {
		t.Errorf("syscall slice %d smaller than pixel slice %d", sys.SliceCount, pix.SliceCount)
	}
}

func TestScrollExposesNewTiles(t *testing.T) {
	site := tinySite()
	p := DefaultProfile()
	p.IdleFrames = 2
	b := New(site, p)
	b.Load(nil)
	marked := b.Raster.MarkedTiles
	b.Browse()
	if b.Raster.MarkedTiles <= marked {
		t.Logf("marked before browse %d, after %d", marked, b.Raster.MarkedTiles)
	}
	if b.Comp.ScrollY == 0 {
		t.Error("scroll was not applied")
	}
	if b.DOM.ByID("hidden-panel").Text == "Invisible panel content" {
		t.Error("click handler should have replaced the panel text")
	}
}
