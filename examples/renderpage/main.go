// Renderpage: run the full simulated browser on a custom page and print the
// pipeline statistics plus the per-thread pixel-slice breakdown — the
// paper's Table II for a page of your own.
package main

import (
	"fmt"
	"log"

	"webslice/internal/browser"
	"webslice/internal/content"
	"webslice/internal/core"
	"webslice/internal/slicer"
)

func main() {
	site := &content.Site{
		Name:      "demo",
		URL:       "https://demo.example/",
		ViewportW: 800,
		ViewportH: 600,
	}
	site.Add(&content.Resource{URL: site.URL, Type: content.HTML, LatencyMs: 50, Body: []byte(`<html><head>
<link rel="stylesheet" href="https://demo.example/site.css">
<script src="https://demo.example/app.js"></script>
</head><body class="page">
<div id="banner" class="banner">Welcome to the demo page</div>
<div id="main" class="card"><p>This paragraph is rendered, rasterized, and displayed.</p></div>
<div id="basement" class="deep">Content far below the fold that nobody scrolls to.</div>
</body></html>`)})
	site.Add(&content.Resource{URL: "https://demo.example/site.css", Type: content.CSS, LatencyMs: 40, Body: []byte(`
.page { background: #ffffff; }
.banner { background: #003366; color: white; height: 60px; padding: 10px; }
.card { background: #f2f2f2; margin: 12px; padding: 16px; }
.deep { margin: 4000px; height: 500px; background: #ff00ff; }
.never-used { border-width: 3px; color: red; }`)})
	site.Add(&content.Resource{URL: "https://demo.example/app.js", Type: content.JS, LatencyMs: 60, Body: []byte(`
function decorate() {
  var b = document.getElementById('banner');
  b.style.background = 3368703;
  return 1;
}
function deadHelper(n) {
  var s = 0;
  for (var i = 0; i < 200; i = i + 1) { s = s + i * i; }
  return s;
}
var ok = decorate();`)})

	b := browser.New(site, browser.DefaultProfile())
	b.RunSession()
	if len(b.Errors) > 0 {
		log.Fatal(b.Errors[0])
	}

	sum := b.M.Tr.Summarize()
	fmt.Printf("rendered %q: %d DOM nodes, %d instructions, %d pixel markers\n",
		site.Name, b.DOM.Count(), sum.Total, sum.Markers)

	p := core.NewProfiler(b.M.Tr)
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pixel slice: %.1f%% of all instructions\n", res.Percent())
	for _, th := range b.M.Tr.Threads {
		fmt.Printf("  %-28s %6.1f%% of %d\n", th.Name, res.ThreadPercent(th.ID), res.ByThread[th.ID])
	}

	// Coverage: which JS/CSS went unused?
	for _, f := range b.JS.Funcs {
		fmt.Printf("  js %-28s executed=%v (%d bytes)\n", f.Name, f.Executed, f.SrcBytes())
	}
	for _, sh := range b.CSS.Sheets {
		fmt.Printf("  css sheet: %d/%d bytes used\n", sh.UsedBytes(), sh.Bytes)
	}
}
