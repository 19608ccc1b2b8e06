// Package analysis post-processes traces, slices, and engine state into the
// paper's reported quantities: the namespace categorization of unnecessary
// computations (Figure 5), unused JS/CSS bytes (Table I), main-thread CPU
// utilization over a session (Figure 2), and backward-pass slicing-percentage
// curves (Figure 4).
package analysis

import (
	"sort"

	"webslice/internal/browser"
	"webslice/internal/browser/ns"
	"webslice/internal/browser/sched"
	"webslice/internal/slicer"
	"webslice/internal/trace"
)

// Categories in the paper's Figure 5 order.
var Categories = []string{
	"JavaScript", "Debugging", "IPC", "Multi-threading",
	"Compositing", "Graphics", "CSS", "Other",
}

// CategoryOf maps a function namespace to a Figure 5 category ("" means the
// instruction cannot be categorized, like the paper's 26-47% of functions
// without a usable namespace).
func CategoryOf(namespace string) string {
	switch namespace {
	case ns.V8:
		return "JavaScript"
	case ns.Debug:
		return "Debugging"
	case ns.IPC:
		return "IPC"
	case ns.Threading:
		return "Multi-threading"
	case ns.CC:
		return "Compositing"
	case ns.Skia:
		return "Graphics"
	case ns.CSS, ns.Layout:
		return "CSS"
	case ns.Loop, ns.Net, ns.NetError:
		return "Other"
	default:
		return ""
	}
}

// CategoryDist is the distribution of potentially unnecessary instructions.
type CategoryDist struct {
	// Share maps category -> fraction (0..1) of the *categorized*
	// unnecessary instructions, as Figure 5 normalizes.
	Share map[string]float64
	// CoveragePct is how many unnecessary instructions had a namespace at
	// all (the paper: 74/59/53/61%).
	CoveragePct float64
	// UnnecessaryTotal counts instructions outside the slice.
	UnnecessaryTotal int
}

// Categorize groups the non-slice instructions by namespace category. It
// works from the result's per-function tallies rather than a record walk —
// a record's category is a function of its FuncID alone, so summing
// ByFunc−SliceByFunc per function is arithmetically identical to visiting
// every non-slice record, and it reads only the trace's symbol table.
func Categorize(t *trace.Trace, res *slicer.Result) CategoryDist {
	counts := make(map[string]int)
	total, categorized := 0, 0
	for fn, n := range res.ByFunc {
		unnecessary := n - res.SliceByFunc[fn]
		if unnecessary <= 0 {
			continue
		}
		total += unnecessary
		cat := CategoryOf(t.Namespace(fn))
		if cat == "" {
			continue
		}
		categorized += unnecessary
		counts[cat] += unnecessary
	}
	d := CategoryDist{Share: make(map[string]float64), UnnecessaryTotal: total}
	if categorized > 0 {
		for c, n := range counts {
			d.Share[c] = float64(n) / float64(categorized)
		}
	}
	if total > 0 {
		d.CoveragePct = 100 * float64(categorized) / float64(total)
	}
	return d
}

// ByteUsage is the Table I accounting for one session.
type ByteUsage struct {
	UnusedBytes int
	TotalBytes  int
}

// Percent is the unused fraction in percent.
func (u ByteUsage) Percent() float64 {
	if u.TotalBytes == 0 {
		return 0
	}
	return 100 * float64(u.UnusedBytes) / float64(u.TotalBytes)
}

// UnusedBytes measures unused JS+CSS code bytes after a session, the way the
// paper's Table I does with DevTools coverage: bytes of never-executed
// function declarations plus bytes of never-matched style rules. Top-level
// script code and stylesheet overhead count as used (the engine consumed
// them to build the page).
func UnusedBytes(b *browser.Browser) ByteUsage {
	var u ByteUsage
	u.TotalBytes = b.JS.TotalSrcBytes
	for _, f := range b.JS.Funcs {
		if isToplevel(f.Name) {
			continue
		}
		if !f.Executed {
			u.UnusedBytes += f.SrcBytes()
		}
	}
	for _, sh := range b.CSS.Sheets {
		u.TotalBytes += sh.Bytes
		for _, r := range sh.Rules {
			if !r.Used {
				u.UnusedBytes += r.SrcBytes
			}
		}
	}
	return u
}

func isToplevel(name string) bool {
	const suffix = "::toplevel"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}

// FaultWasteResult measures the error-handling work of one run: instructions
// attributed to the net/error namespace (timeouts, retries, backoff
// computation, partial-body scans, stale-response discards, failure
// bookkeeping), split by whether the pixel slice needed them. Error-path work
// is almost entirely waste by the paper's criterion — it produced no pixels —
// and this quantifies how much a degraded network inflates the unnecessary
// fraction relative to a clean load.
type FaultWasteResult struct {
	// ErrorPathInstr counts net/error-namespace instructions.
	ErrorPathInstr int
	// InSlice / OutOfSlice split ErrorPathInstr by pixel-slice membership.
	InSlice, OutOfSlice int
	// Total is the whole trace length, for fractions.
	Total int
}

// ErrorPathPct is the error-path share of the whole trace, in percent.
func (f FaultWasteResult) ErrorPathPct() float64 {
	if f.Total == 0 {
		return 0
	}
	return 100 * float64(f.ErrorPathInstr) / float64(f.Total)
}

// WastedPct is the fraction of error-path instructions outside the slice.
func (f FaultWasteResult) WastedPct() float64 {
	if f.ErrorPathInstr == 0 {
		return 0
	}
	return 100 * float64(f.OutOfSlice) / float64(f.ErrorPathInstr)
}

// FaultWaste scans a trace for net/error-namespace instructions and splits
// them by pixel-slice membership.
func FaultWaste(t *trace.Trace, res *slicer.Result) FaultWasteResult {
	out := FaultWasteResult{Total: t.Len()}
	for i := range t.Recs {
		if t.Namespace(t.Recs[i].Func()) != ns.NetError {
			continue
		}
		out.ErrorPathInstr++
		if res.InSlice.Get(i) {
			out.InSlice++
		} else {
			out.OutOfSlice++
		}
	}
	return out
}

// CPUPoint is one utilization sample.
type CPUPoint struct {
	TimeMs         uint64
	UtilizationPct float64
}

// CPUTimeline computes per-window CPU utilization of one thread over the
// session (Figure 2): busy cycles of that thread per window divided by the
// window length, on the virtual clock.
func CPUTimeline(t *trace.Trace, tid uint8, windowMs uint64) []CPUPoint {
	window := windowMs * sched.CyclesPerMs
	if window == 0 || t.Len() == 0 {
		return nil
	}
	end := t.EndCycle()
	buckets := make([]uint64, end/window+1)
	for i := range t.Recs {
		if t.Recs[i].TID != tid {
			continue
		}
		c := t.CycleAt(i)
		buckets[c/window]++
	}
	out := make([]CPUPoint, len(buckets))
	for i, busy := range buckets {
		pct := 100 * float64(busy) / float64(window)
		if pct > 100 {
			pct = 100
		}
		out[i] = CPUPoint{TimeMs: uint64(i) * windowMs, UtilizationPct: pct}
	}
	return out
}

// CurvePoint is one Figure 4 sample: after the backward pass has walked
// Processed records back from the end of the trace, Sliced of them are in
// the slice; the Main* fields restrict both counts to the main thread.
type CurvePoint struct {
	Processed, Sliced         int
	MainProcessed, MainSliced int
}

// XMInstr is the sample's x: millions of instructions walked from the trace
// end.
func (p CurvePoint) XMInstr() float64 { return float64(p.Processed) / 1e6 }

// AllPct is the slice percentage over every thread's walked records.
func (p CurvePoint) AllPct() float64 { return percent(p.Sliced, p.Processed) }

// MainPct is the slice percentage over the main thread's walked records.
func (p CurvePoint) MainPct() float64 { return percent(p.MainSliced, p.MainProcessed) }

func percent(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// BackwardCurve computes the Figure 4 series of res, a finished slice of t,
// walking backward from the end of the trace and counting browser.MainThread
// apart. It samples every max(1, n/points) records of the n in the trace,
// plus once at the beginning if that is not a sample already. The backward
// pass sets a record's InSlice bit only while it steps that record, so the
// bits of the last k records count exactly what the pass had sliced after k
// steps.
func BackwardCurve(t *trace.Trace, res *slicer.Result, points int) []CurvePoint {
	n := len(t.Recs)
	every := max(1, n/max(1, points))
	out := make([]CurvePoint, 0, n/every+1)
	var p CurvePoint
	for i := n - 1; i >= 0; i-- {
		in := res.InSlice.Get(i)
		p.Processed++
		if in {
			p.Sliced++
		}
		if t.Recs[i].TID == browser.MainThread {
			p.MainProcessed++
			if in {
				p.MainSliced++
			}
		}
		if p.Processed%every == 0 {
			out = append(out, p)
		}
	}
	if n == 0 || n%every != 0 {
		out = append(out, p)
	}
	return out
}

// TopWastedFunctions lists the functions contributing the most non-slice
// instructions (a diagnostic beyond the paper's tables, used by the deadcode
// example and the categorize command).
type FunctionWaste struct {
	Name      string
	Namespace string
	Wasted    int
	Total     int
}

// TopWasted returns the n functions with the most instructions outside the
// slice.
func TopWasted(t *trace.Trace, res *slicer.Result, n int) []FunctionWaste {
	var out []FunctionWaste
	for fn, total := range res.ByFunc {
		wasted := total - res.SliceByFunc[fn]
		if wasted == 0 {
			continue
		}
		out = append(out, FunctionWaste{
			Name:      t.FuncName(fn),
			Namespace: t.Namespace(fn),
			Wasted:    wasted,
			Total:     total,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wasted > out[j].Wasted })
	if len(out) > n {
		out = out[:n]
	}
	return out
}
