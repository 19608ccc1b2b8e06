package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"webslice/internal/obs"
)

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// errThinTail refuses a percentile that too few samples lie beyond.
var errThinTail = errors.New("too few samples beyond the percentile")

// p90 is the nearest-rank 90th percentile: the smallest sample with at
// least 90% of the samples at or below it. It is refused unless at least
// minTail samples lie beyond it, which takes 100 samples.
func p90(xs []float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(0.9 * float64(n)))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p90 of %d samples: %d beyond it, need %d: %w", n, beyond, minTail, errThinTail)
	}
	return sortedCopy(xs)[rank-1], nil
}

// selfTimes returns, per trace ID and span name, the summed self time in
// milliseconds. A span's self time is its duration minus the part of its
// own interval that its children cover; children may overlap each other
// (synthesized phase spans) or outlive the parent (a worker's job span
// under a coordinator's route span), so covered time is the union of the
// child intervals clipped to the parent. Spans are joined on trace ID, so
// the halves of a trace recorded by different daemons merge.
func selfTimes(spans []obs.SpanData) map[string]map[string]float64 {
	type iv struct{ lo, hi float64 }
	children := make(map[string][]iv, len(spans))
	key := func(trace, id string) string { return trace + "/" + id }
	bounds := func(s *obs.SpanData) iv {
		lo := float64(s.StartNs) / 1e6
		return iv{lo, lo + s.DurMs}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != "" && s.Parent != s.ID {
			k := key(s.Trace, s.Parent)
			children[k] = append(children[k], bounds(s))
		}
	}
	out := make(map[string]map[string]float64)
	for i := range spans {
		s := &spans[i]
		p := bounds(s)
		kids := children[key(s.Trace, s.ID)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, reach := 0.0, p.lo
		for _, c := range kids {
			lo, hi := math.Max(c.lo, reach), math.Min(c.hi, p.hi)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		if out[s.Trace] == nil {
			out[s.Trace] = make(map[string]float64)
		}
		out[s.Trace][layerName(s)] += math.Max(0, s.DurMs-covered)
	}
	return out
}

// layerName is the name a span's self time is filed under: its span
// name, qualified by artifact kind for store operations ("store.get/deps").
func layerName(s *obs.SpanData) string {
	if strings.HasPrefix(s.Name, "store.") {
		for _, a := range s.Attrs {
			if a.K == "kind" {
				return s.Name + "/" + a.V
			}
		}
	}
	return s.Name
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	// Fields after the name start at field 3 (state); utime and stime are
	// fields 14 and 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the name, want at least 13", len(f))
	}
	var sum int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		sum += v
	}
	return sum, nil
}

// parseHostCPU returns the machine's total and steal time, in clock ticks,
// from the aggregate "cpu" line of /proc/stat. Steal is time the hypervisor
// gave this machine's CPUs to another guest while they had work.
func parseHostCPU(stat string) (total, steal int64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("proc stat: no aggregate cpu line")
	}
	// user nice system idle iowait irq softirq steal; guest time that may
	// follow is already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// parseVmHWM returns the peak resident set size in KiB from the contents
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// parseMetrics reads the unlabelled samples of a Prometheus text
// exposition (the daemons' /metrics) into name -> value. Comment lines and
// labelled histogram buckets are skipped.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
