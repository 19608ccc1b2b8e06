// Criteria: contrast the paper's two slicing criteria on a page that
// performs a non-visual network transaction. The pixel-based slice ignores
// the analytics beacon entirely; the syscall-based slice captures it —
// and contains the pixel slice, as §IV-C argues.
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
		Name:      "bank",
		URL:       "https://bank.example/",
		ViewportW: 640,
		ViewportH: 480,
	}
	site.Add(&content.Resource{URL: site.URL, Type: content.HTML, LatencyMs: 40, Body: []byte(`<html><head>
<script src="https://bank.example/app.js"></script>
</head><body class="page">
<div id="balance" class="card">Balance: $1,024</div>
</body></html>`)})
	site.Add(&content.Resource{URL: "https://bank.example/app.js", Type: content.JS, LatencyMs: 50, Body: []byte(`
function reportTransaction() {
  var amount = 0;
  for (var i = 0; i < 64; i = i + 1) { amount = amount + i; }
  navigator.sendBeacon('audit', 512);
  return amount;
}
var sent = reportTransaction();`)})

	b := browser.New(site, browser.DefaultProfile())
	b.RunSession()
	if len(b.Errors) > 0 {
		log.Fatal(b.Errors[0])
	}

	// One forward pass, then one backward walk per criterion.
	p := core.NewProfiler(b.M.Tr)
	pix, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := p.Slice(slicer.SyscallCriteria{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trace: %d instructions\n", pix.Total)
	fmt.Printf("pixel-based slice:   %6.1f%% (%d instructions)\n", pix.Percent(), pix.SliceCount)
	fmt.Printf("syscall-based slice: %6.1f%% (%d instructions)\n", sys.Percent(), sys.SliceCount)

	missing, extra := 0, 0
	for i := 0; i < pix.Total; i++ {
		inP, inS := pix.InSlice.Get(i), sys.InSlice.Get(i)
		if inP && !inS {
			missing++
		}
		if inS && !inP {
			extra++
		}
	}
	fmt.Printf("pixel-slice records missing from syscall slice: %d (criteria inclusion)\n", missing)
	fmt.Printf("records only the syscall criteria capture:      %d (the bank transaction)\n", extra)
	if missing == 0 && extra > 0 {
		fmt.Println("=> the syscall slice subsumes the pixel slice and additionally")
		fmt.Println("   captures the network transaction the user cares about but never sees.")
	}
}
