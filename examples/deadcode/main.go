// Deadcode: use the profiler as a dead-computation finder. It renders the
// Amazon desktop benchmark, slices it, and reports which functions burned
// the most instructions without contributing to the pixels — the
// "defer or delete" optimization list the paper's conclusion proposes.
package main

import (
	"fmt"
	"log"

	"webslice/internal/analysis"
	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/sites"
	"webslice/internal/slicer"
)

func main() {
	bench := sites.AmazonDesktop(sites.Options{Scale: 0.15})
	b := browser.New(bench.Site, bench.Profile)
	b.RunSession()
	if len(b.Errors) > 0 {
		log.Fatal(b.Errors[0])
	}
	p := core.NewProfiler(b.M.Tr)
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d instructions, %.1f%% in the pixel slice\n\n",
		bench.Name, res.Total, res.Percent())

	fmt.Println("Top wasted functions (instructions outside the slice):")
	for _, fw := range analysis.TopWasted(b.M.Tr, res, 15) {
		fmt.Printf("  %8d / %8d  [%s] %s\n", fw.Wasted, fw.Total, orNone(fw.Namespace), fw.Name)
	}

	fmt.Println("\nJavaScript functions compiled but never executed (defer candidates):")
	deferrable := 0
	for _, f := range b.JS.Funcs {
		if !f.Executed && f.SrcBytes() > 0 {
			deferrable += f.SrcBytes()
		}
	}
	u := analysis.UnusedBytes(b)
	fmt.Printf("  %d bytes of JS could be lazily compiled (%.0f%% of JS+CSS is unused overall)\n",
		deferrable, u.Percent())

	d := analysis.Categorize(b.M.Tr, res)
	fmt.Println("\nWhere the waste lives (paper Figure 5 categories):")
	for _, c := range analysis.Categories {
		fmt.Printf("  %-16s %5.1f%%\n", c, 100*d.Share[c])
	}
}

func orNone(ns string) string {
	if ns == "" {
		return "uncategorized"
	}
	return ns
}
