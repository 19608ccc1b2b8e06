package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"

	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/experiments"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
)

// Job kinds. Every timed job of a workload has one.
const (
	kindSite        = "site"         // a named corpus site, rendered by the daemon
	kindCold        = "cold"         // an upload the daemon has never seen
	kindFirstSeen   = "first-seen"   // cluster-mixed: an upload seen for the first time
	kindRepeatSame  = "repeat-same"  // cluster-mixed: a seen upload, same criteria
	kindRepeatOther = "repeat-other" // cluster-mixed: a seen upload, other criteria
)

// workload describes one traffic mix: how many closed-loop clients drive
// how many daemons, and how its job sequence is drawn from the seed.
type workload struct {
	name    string
	clients int
	cluster bool // coordinator + 2 workers instead of one daemon
	// rate is the workload's completion rate in jobs/s, measured on a
	// 2-core machine; a window sends about rate × --seconds jobs.
	rate float64
	// cycle is the length of the workload's repeating job mix; a window
	// sends whole cycles, so every seed sends the same mix.
	cycle int
	// setups is how many times an untraced run sets up its daemons;
	// setup_s is the median. A site-repeat setup renders 8 warm-up jobs
	// and takes seconds; the upload workloads' take under half a second, so
	// they set up more often.
	setups int
}

var workloads = []workload{
	{name: "site-repeat", clients: 2, rate: 3, cycle: 8, setups: 3},
	{name: "upload-cold", clients: 1, rate: 5, cycle: 1, setups: 7},
	{name: "cluster-mixed", clients: 2, cluster: true, rate: 8, cycle: 3, setups: 7},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want site-repeat, upload-cold or cluster-mixed)", name)
}

// windowJobs is how many timed jobs a window sends: enough to last about
// `seconds` on the reference machine, at least minTimedJobs, in whole
// cycles. A fixed count rather than a fixed time gives every seed the same
// work, so seeds differ only in order.
func windowJobs(w workload, seconds int) int {
	n := max(int(math.Ceil(w.rate*float64(seconds))), minTimedJobs)
	return (n + w.cycle - 1) / w.cycle * w.cycle
}

// job is one planned submission.
type job struct {
	Kind     string
	Site     string  // kindSite: the corpus site
	Scale    float64 // kindSite: its scale
	Criteria string  // "pixels" or "syscalls"
	Input    int     // upload jobs: index into the input pool; -1 for site jobs
}

// splitmix64 is the benchmark's seeded generator: the same seed gives the
// same job sequence and the same inputs on every machine.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// mix64 is splitmix64's output function, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is a Fisher-Yates shuffle driven by r.
func (r *splitmix64) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// stream derives an independent generator for one purpose (tag) of a
// workload seed.
func stream(seed, tag uint64) *splitmix64 {
	return &splitmix64{s: mix64(seed ^ mix64(tag+0x51))}
}

// universeSite is the sites.Random seed of element k of the fixed set of
// property sites the upload workloads draw from. Distinct elements get
// distinct site seeds, since mix64 is a bijection.
func universeSite(k int) uint64 {
	s := mix64(0x5EED + uint64(k)*0x9E3779B97F4A7C15)
	if s == 0 {
		s = 1
	}
	return s
}

// inputSites returns the sites.Random seeds of upload inputs 0..n-1: the
// first `warm` are universe elements 0..warm-1 (the warm-up pass, the same
// for every seed), the rest a seed-shuffled order of elements warm..n-1.
// Every seed uploads the same set of sites: drawing a fresh set per seed
// made the window's median site size, and with it every end-to-end metric,
// differ by 10-20% between seeds.
func inputSites(seed uint64, n, warm int) []uint64 {
	out := make([]uint64, n)
	for k := range out {
		out[k] = universeSite(k)
	}
	rest := out[warm:]
	stream(seed, 3).shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return out
}

// clusterLag is how many blocks of three a cluster-mixed repeat trails the
// first-seen job of its trace, so the first sighting has finished before the
// repeat is sent. The first clusterLag traces are sent in the warm-up pass.
const clusterLag = 3

// coldWarm is how many uploads upload-cold's warm-up pass sends. They are
// never sent again, so every timed job is still a miss, but the daemon has
// served jobs before the window and setup_s is not just process start-up,
// which swings by 2x with the machine's load.
const coldWarm = 3

// warmInputs is how many upload inputs the warm-up pass sends: inputs
// 0..warmInputs-1.
func warmInputs(w workload) int {
	switch {
	case w.cluster:
		return clusterLag
	case w.name == "upload-cold":
		return coldWarm
	}
	return 0
}

// poolSize is how many upload inputs a window of n jobs uses, the warm-up
// pass included.
func poolSize(w workload, n int) int {
	if w.cluster {
		return n/3 + clusterLag // a block of three jobs first-sees one input
	}
	return warmInputs(w) + n
}

// sitePairs lists the (site, criteria) pairs site-repeat sends.
func sitePairs(golden []experiments.GoldenEntry) []job {
	var pairs []job
	for _, e := range golden {
		for _, c := range []string{"pixels", "syscalls"} {
			pairs = append(pairs, job{Kind: kindSite, Site: e.Name, Scale: e.Scale, Criteria: c, Input: -1})
		}
	}
	return pairs
}

// siteCycle returns cycle c of site-repeat: every pair once, in an order
// shuffled afresh from the seed for each cycle. One order repeated every
// cycle would pair the same jobs on the two clients all run long, and
// which jobs overlap moves the latencies by 10-20%.
func siteCycle(seed uint64, pairs []job, c int) []job {
	out := append([]job(nil), pairs...)
	stream(seed, 100+uint64(c)).shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// firstCriteria is the criteria upload input i is first sent with: always
// pixels on upload-cold; on cluster-mixed, alternating from a seed-chosen
// start, so every seed sends each criteria on half of the traces.
func firstCriteria(w workload, seed uint64, i int) string {
	if w.cluster && (uint64(i)+mix64(seed))&1 == 1 {
		return "syscalls"
	}
	return "pixels"
}

func otherCriteria(c string) string {
	if c == "pixels" {
		return "syscalls"
	}
	return "pixels"
}

// planJob returns timed job i of a workload: a pure function of the
// workload, the seed and i.
func planJob(w workload, seed uint64, pairs []job, i int) job {
	switch {
	case w.name == "site-repeat":
		return siteCycle(seed, pairs, i/len(pairs))[i%len(pairs)]
	case w.cluster:
		// Each block of three holds one job of each kind in a seed-shuffled
		// order: block b first-sees input b+clusterLag and repeats input b.
		b := i / 3
		kinds := []string{kindFirstSeen, kindRepeatSame, kindRepeatOther}
		stream(seed, 2+uint64(b)).shuffle(3, func(x, y int) { kinds[x], kinds[y] = kinds[y], kinds[x] })
		switch k := kinds[i%3]; k {
		case kindFirstSeen:
			in := b + clusterLag
			return job{Kind: k, Criteria: firstCriteria(w, seed, in), Input: in}
		case kindRepeatSame:
			return job{Kind: k, Criteria: firstCriteria(w, seed, b), Input: b}
		default:
			return job{Kind: k, Criteria: otherCriteria(firstCriteria(w, seed, b)), Input: b}
		}
	default:
		return job{Kind: kindCold, Criteria: "pixels", Input: coldWarm + i}
	}
}

// warmupJobs are the untimed jobs sent after start-up, before the window:
// every site-repeat pair once (so timed jobs hit the slice cache), the
// first sightings of the traces cluster-mixed repeats first, and
// upload-cold uploads that the window does not send.
func warmupJobs(w workload, seed uint64, pairs []job) []job {
	if w.name == "site-repeat" {
		return pairs
	}
	kind := kindCold
	if w.cluster {
		kind = kindFirstSeen
	}
	var out []job
	for in := 0; in < warmInputs(w); in++ {
		out = append(out, job{Kind: kind, Criteria: firstCriteria(w, seed, in), Input: in})
	}
	return out
}

// upload is one generated input: the v3 bytes of a rendered property site
// and the reference slice digests the service's results must match.
type upload struct {
	data []byte
	want map[string]string // criteria -> reference slice digest
}

// makeUploads renders the workload's first n upload inputs and computes
// their reference digests, on GOMAXPROCS goroutines.
func makeUploads(w workload, seed uint64, n int) ([]*upload, error) {
	siteSeeds := inputSites(seed, n, warmInputs(w))
	crit := []string{"pixels"}
	if w.cluster {
		crit = []string{"pixels", "syscalls"}
	}
	out := make([]*upload, n)
	errs := make([]error, n)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= n {
					return
				}
				out[k], errs[k] = makeUpload(siteSeeds[k], crit)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// makeUpload renders sites.Random(siteSeed), encodes it as v3 (the
// `webslice trace` default), and slices the materialized trace in process
// with no store, no HTTP and no streaming: the reference the service's
// digests are checked against.
func makeUpload(siteSeed uint64, criteria []string) (*upload, error) {
	t, err := render(sites.Random(siteSeed))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.WriteV3Blocks(&buf, trace.DefaultBlockRecs); err != nil {
		return nil, fmt.Errorf("encoding rand-%d: %w", siteSeed, err)
	}
	want, err := referenceDigests(t, criteria)
	if err != nil {
		return nil, fmt.Errorf("rand-%d: %w", siteSeed, err)
	}
	return &upload{data: buf.Bytes(), want: want}, nil
}

func render(b sites.Benchmark) (*trace.Trace, error) {
	br := browser.New(b.Site, b.Profile)
	if b.Faults != nil {
		br.Loader.SetFaults(b.Faults)
	}
	br.RunSession()
	if len(br.Errors) > 0 {
		return nil, fmt.Errorf("rendering %s: %w", b.Name, br.Errors[0])
	}
	return br.M.Tr, nil
}

// referenceDigests slices t sequentially under each criteria and returns
// the service's digest of each result: hex SHA-256 of the store encoding
// with the progress curve stripped.
func referenceDigests(t *trace.Trace, criteria []string) (map[string]string, error) {
	p := core.NewProfiler(t)
	p.Opts = slicer.Options{MainThread: browser.MainThread, Segments: 1}
	out := make(map[string]string, len(criteria))
	for _, c := range criteria {
		var crit slicer.Criteria = slicer.PixelCriteria{}
		if c == "syscalls" {
			crit = slicer.SyscallCriteria{}
		}
		r, err := p.Slice(crit)
		if err != nil {
			return nil, fmt.Errorf("reference slice (%s): %w", c, err)
		}
		stripped := *r
		stripped.Progress = nil
		sum := sha256.Sum256(store.EncodeResult(&stripped))
		out[c] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// loadGolden reads the named sites of the golden corpus (read only).
func loadGolden(root string) ([]experiments.GoldenEntry, error) {
	c, err := experiments.LoadGolden(filepath.Join(root, "examples", "golden", "corpus.json"))
	if err != nil {
		return nil, err
	}
	var out []experiments.GoldenEntry
	for _, e := range c.Sites {
		if e.Name != "" {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden corpus has no named sites")
	}
	return out, nil
}

// goldenWant returns the pinned digest of a site job.
func goldenWant(golden []experiments.GoldenEntry, j job) string {
	for _, e := range golden {
		if e.Name == j.Site && e.Scale == j.Scale {
			if j.Criteria == "syscalls" {
				return e.Syscalls
			}
			return e.Pixels
		}
	}
	return ""
}
