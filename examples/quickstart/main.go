// Quickstart: trace a small hand-written program on the traced machine,
// slice it backward from a pixel-buffer criterion, and print what the
// profiler found. This is the paper's methodology in twenty lines: only the
// computation that reaches the marked buffer is "necessary".
package main

import (
	"fmt"
	"log"

	"webslice/internal/core"
	"webslice/internal/slicer"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

func main() {
	m := vm.New()
	m.Thread(0, "main")

	framebuffer := m.Tile.Alloc(64)
	scratch := m.Heap.Alloc(64)

	render := m.Func("render", "app")
	telemetry := m.Func("telemetry", "app/debug")

	// Useful work: compute a gradient and write it to the framebuffer.
	m.Call(render, func() {
		color := m.Const(0x20)
		for px := 0; px < 16; px++ {
			m.At("px")
			color = m.AddImm(color, 3)
			m.Store(framebuffer+vmem.Addr(px*4), 4, color)
		}
	})
	// Wasted work: telemetry counters nothing ever displays.
	m.Call(telemetry, func() {
		count := m.Const(0)
		for i := 0; i < 32; i++ {
			m.At("tick")
			count = m.AddImm(count, 1)
			m.StoreU32(scratch, count)
		}
	})
	// The slicing criterion: the framebuffer now holds final pixel values.
	m.MarkPixels(vmem.Range{Addr: framebuffer, Size: 64})

	p := core.NewProfiler(m.Tr)
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d instructions\n", res.Total)
	fmt.Printf("pixel slice: %d instructions (%.1f%%)\n", res.SliceCount, res.Percent())
	for fn, total := range res.ByFunc {
		fmt.Printf("  %-24s %4d / %4d in slice\n", m.Tr.FuncName(fn), res.SliceByFunc[fn], total)
	}
}
