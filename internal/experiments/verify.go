package experiments

// The verify experiment is the correctness tooling for the slicing engine:
// every oracle in the validation hierarchy (TESTING.md) wired behind
// `webslice verify`. Phases:
//
//   - golden:       re-run the committed golden corpus (examples/golden/)
//                   and compare trace, slice and category digests
//                   byte-for-byte (a trace change demands a
//                   browser.RenderVersion bump, a slice or category change
//                   a bump of it or of core.AnalysisVersion), then replay
//                   and invariant-check every corpus slice;
//   - crossformat:  re-run the golden corpus the way the service runs an
//                   upload: encode each trace, decode the bytes, slice the
//                   decoded trace (once after a forward-pass miss, once
//                   after a forward-pass store hit), and demand the same
//                   pinned digests, the same Table II and Figure 5
//                   numbers, and the same replay-oracle verdicts as the
//                   rendered trace;
//   - replay:       re-execute property-generated sites' slices with all
//                   out-of-slice instructions elided, asserting criterion
//                   bytes reproduce;
//   - differential: run the deliberately naive reference slicer against
//                   slicer.Slice on property-generated sites;
//   - invariants:   structural oracles (closure, subset, union
//                   monotonicity) on property-generated sites;
//   - all:          everything above; each golden site is rendered and
//                   sliced once, and both the golden and the
//                   cross-format checks apply to that one run.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"webslice/internal/analysis"
	"webslice/internal/browser"
	"webslice/internal/cdg"
	"webslice/internal/core"
	"webslice/internal/refslicer"
	"webslice/internal/replay"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
	"webslice/internal/vm"
)

// VerifyConfig tunes the verify experiment.
type VerifyConfig struct {
	// Scale applies to named golden-corpus sites (property sites are
	// fixed-size minis).
	Scale float64
	// Workers bounds concurrent site sessions (<= 0 means GOMAXPROCS).
	Workers int
	// PropertyCount is how many randomized property sites the replay,
	// differential, and invariants phases generate.
	PropertyCount int
	// Seed is the first property-site seed; site k uses Seed+k.
	Seed uint64
	// GoldenPath locates the golden corpus JSON; empty skips the golden
	// phase.
	GoldenPath string
	// Update rewrites the golden corpus digests instead of comparing.
	Update bool
}

// VerifyStats summarizes what a verify run checked.
type VerifyStats struct {
	GoldenSites   int
	PropertySites int
	Replays       int
	Differentials int
	Invariants    int
	Updated       int
	// CrossFormat counts golden sites whose slices of the encoded and
	// decoded trace were checked against the pinned digests and replay
	// verdicts.
	CrossFormat int
}

// sliceVerified takes the pixel, syscall, and union slices of p's trace, in
// that order, one backward walk each.
func sliceVerified(p *core.Profiler) ([]*slicer.Result, error) {
	cs := []slicer.Criteria{
		slicer.PixelCriteria{},
		slicer.SyscallCriteria{},
		slicer.Union{slicer.PixelCriteria{}, slicer.SyscallCriteria{}},
	}
	rs := make([]*slicer.Result, len(cs))
	for k, c := range cs {
		r, err := p.Slice(c)
		if err != nil {
			return nil, err
		}
		rs[k] = r
	}
	return rs, nil
}

// verifiedRun is one site rendered with a tape attached and sliced under
// all three criteria.
type verifiedRun struct {
	bench         sites.Benchmark
	tr            *trace.Trace
	tape          *vm.Tape
	deps          *cdg.Deps
	pix, sys, uni *slicer.Result
}

// runVerified renders a benchmark with capture enabled and computes the
// pixel, syscall, and union slices.
func runVerified(b sites.Benchmark) (*verifiedRun, error) {
	br := browser.New(b.Site, b.Profile)
	tape := br.M.Capture()
	br.RunSession()
	br.M.SealTape()
	if len(br.Errors) > 0 {
		return nil, fmt.Errorf("verify: %s: %v", b.Name, br.Errors[0])
	}
	p := core.NewProfiler(br.M.Tr)
	if err := p.Forward(); err != nil {
		return nil, fmt.Errorf("verify: %s: %w", b.Name, err)
	}
	rs, err := sliceVerified(p)
	if err != nil {
		return nil, fmt.Errorf("verify: %s: %w", b.Name, err)
	}
	return &verifiedRun{
		bench: b, tr: br.M.Tr, tape: tape, deps: p.Deps(),
		pix: rs[0], sys: rs[1], uni: rs[2],
	}, nil
}

// replayAll re-executes all three slices of a run against its tape.
func (v *verifiedRun) replayAll() error {
	checks := []struct {
		res *slicer.Result
		cfg replay.Config
	}{
		{v.pix, replay.Config{CheckPixels: true}},
		{v.sys, replay.Config{CheckSyscalls: true}},
		{v.uni, replay.Config{CheckPixels: true, CheckSyscalls: true}},
	}
	for _, c := range checks {
		if d := replay.Replay(v.tr, v.tape, c.res, c.cfg); d != nil {
			return fmt.Errorf("verify: %s: slice %q: %w", v.bench.Name, c.res.Criteria, d)
		}
	}
	return nil
}

// diffAll runs the naive reference slicer per criterion and demands exact
// agreement with the optimized pixel and syscall slices (the union
// criterion is covered by the monotonicity invariant and the union replay).
func (v *verifiedRun) diffAll() error {
	for _, pair := range []struct {
		c   slicer.Criteria
		res *slicer.Result
	}{{slicer.PixelCriteria{}, v.pix}, {slicer.SyscallCriteria{}, v.sys}} {
		ref, err := refslicer.Slice(v.tr, v.deps, pair.c, false)
		if err != nil {
			return fmt.Errorf("verify: %s: %w", v.bench.Name, err)
		}
		if err := refslicer.Equal(ref, pair.res); err != nil {
			return fmt.Errorf("verify: %s: criterion %q: %w", v.bench.Name, pair.c.Name(), err)
		}
	}
	return nil
}

// invariantsAll runs the structural oracles over a run's slices.
func (v *verifiedRun) invariantsAll() error {
	for _, res := range []*slicer.Result{v.pix, v.sys, v.uni} {
		if err := replay.CheckInvariants(v.tr, v.deps, res); err != nil {
			return fmt.Errorf("verify: %s: slice %q: %w", v.bench.Name, res.Criteria, err)
		}
	}
	if err := replay.CheckMonotonic(v.uni, v.pix, v.sys); err != nil {
		return fmt.Errorf("verify: %s: %w", v.bench.Name, err)
	}
	return nil
}

// GoldenEntry pins one golden-corpus site: a named benchmark at a scale, or
// a property seed, with its rendered trace's digest and the expected slice
// and category digests.
type GoldenEntry struct {
	Name  string  `json:"name,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	// Trace is the hex trace.Digest of the site's render, valid for the
	// corpus's RenderVersion.
	Trace    string `json:"trace"`
	Pixels   string `json:"pixels"`
	Syscalls string `json:"syscalls"`
	// Categories is the categoryDigest of the pixel and syscall slices.
	Categories string `json:"categories"`
}

// GoldenCorpus is the committed golden-corpus file format
// (examples/golden/corpus.json).
type GoldenCorpus struct {
	Comment string `json:"comment,omitempty"`
	// RenderVersion is the browser.RenderVersion the trace pins were
	// rendered under.
	RenderVersion int `json:"render_version"`
	// AnalysisVersion is the core.AnalysisVersion the slice and category
	// pins were computed under.
	AnalysisVersion int           `json:"analysis_version"`
	Sites           []GoldenEntry `json:"sites"`
}

// Bench materializes the entry's benchmark.
func (e *GoldenEntry) Bench() (sites.Benchmark, error) {
	if e.Name != "" {
		return sites.ByName(e.Name, sites.Options{Scale: e.Scale})
	}
	return sites.Random(e.Seed), nil
}

// Label names the entry in reports.
func (e *GoldenEntry) Label() string {
	if e.Name != "" {
		return fmt.Sprintf("%s@%g", e.Name, e.Scale)
	}
	return fmt.Sprintf("rand-%d", e.Seed)
}

// LoadGolden reads a golden corpus file.
func LoadGolden(path string) (*GoldenCorpus, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("verify: golden corpus: %w", err)
	}
	var c GoldenCorpus
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("verify: golden corpus %s: %w", path, err)
	}
	if len(c.Sites) == 0 {
		return nil, fmt.Errorf("verify: golden corpus %s: no sites", path)
	}
	return &c, nil
}

// ExecuteVerify runs one verify phase ("golden", "crossformat", "replay",
// "differential", "invariants") or "all".
func ExecuteVerify(phase string, cfg VerifyConfig) (*VerifyStats, error) {
	if cfg.PropertyCount <= 0 {
		cfg.PropertyCount = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	stats := &VerifyStats{}
	switch phase {
	case "golden":
		return stats, verifyCorpus(cfg, stats, true, false)
	case "crossformat":
		return stats, verifyCorpus(cfg, stats, false, true)
	case "replay", "differential", "invariants":
		return stats, verifyProperty(phase, cfg, stats)
	case "all":
		if err := verifyCorpus(cfg, stats, true, true); err != nil {
			return stats, err
		}
		return stats, verifyProperty("all", cfg, stats)
	default:
		return nil, fmt.Errorf("verify: unknown phase %q (want golden, crossformat, replay, differential, invariants, or all)", phase)
	}
}

// verifyCorpus renders and slices every golden corpus site once
// (runVerified) and applies the golden checks, the cross-format checks, or
// both to that one run. Under cfg.Update the golden checks re-pin first,
// so the cross-format checks compare against the new pins.
func verifyCorpus(cfg VerifyConfig, stats *VerifyStats, golden, cross bool) error {
	if cfg.GoldenPath == "" {
		return nil
	}
	corpus, err := LoadGolden(cfg.GoldenPath)
	if err != nil {
		return err
	}
	// Lowering a version could re-address answers of older code.
	if golden && (corpus.RenderVersion > browser.RenderVersion || corpus.AnalysisVersion > core.AnalysisVersion) {
		return fmt.Errorf("verify: golden corpus pins render version %d and analysis version %d, newer than browser.RenderVersion %d or core.AnalysisVersion %d",
			corpus.RenderVersion, corpus.AnalysisVersion, browser.RenderVersion, core.AnalysisVersion)
	}
	// A pin may move only under a bump of a version that guards it.
	renderBumped := corpus.RenderVersion != browser.RenderVersion
	analysisBumped := corpus.AnalysisVersion != core.AnalysisVersion
	var updated atomic.Int64
	err = forEach(cfg.Workers, len(corpus.Sites), func(i int) error {
		e := &corpus.Sites[i]
		b, err := e.Bench()
		if err != nil {
			return fmt.Errorf("verify: %s: %w", e.Label(), err)
		}
		v, err := runVerified(b)
		if err != nil {
			return err
		}
		if golden {
			changed, err := checkGolden(e, v, renderBumped, analysisBumped, cfg.Update)
			if err != nil {
				return err
			}
			if changed {
				updated.Add(1)
			}
		}
		if cross {
			return checkCrossFormat(e, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := len(corpus.Sites)
	if cross {
		stats.CrossFormat = n
		stats.Replays += 3 * n
		stats.Invariants += n
	}
	if !golden {
		return nil
	}
	stats.GoldenSites = n
	stats.Replays += 3 * n
	stats.Invariants += n
	stats.Updated = int(updated.Load())
	if !cfg.Update {
		return nil
	}
	corpus.RenderVersion, corpus.AnalysisVersion = browser.RenderVersion, core.AnalysisVersion
	out, err := json.MarshalIndent(corpus, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.GoldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(cfg.GoldenPath, append(out, '\n'), 0o644)
}

// checkGolden checks (or, with update, re-pins) one golden corpus entry
// against its run: trace, slice and category digests must match
// byte-for-byte, and every slice must replay and satisfy the invariants.
// changed reports that update moved a pin.
//
// Each pin guards a version that the service's store keys name: a trace
// pin browser.RenderVersion, and a slice or category pin
// core.AnalysisVersion. A slice or category pin may also move after a
// RenderVersion bump, which changes the trace it derives from. Both modes
// refuse a pin that moved while no version guarding it was bumped, naming
// the version to bump, so a change to the code behind the pin can neither
// be re-pinned nor have a persistent store serve the old code's answers.
// Under update, a pin taken after such a bump, or never taken (an entry
// just added), is set. Until -update records the new versions,
// TestGoldenCorpusDigestsPinned fails on the version mismatch.
func checkGolden(e *GoldenEntry, v *verifiedRun, renderBumped, analysisBumped, update bool) (changed bool, err error) {
	sum := v.tr.Digest()
	for _, p := range []struct {
		what    string
		pin     *string
		got     string
		bumped  bool   // a version guarding the pin moved since it was taken
		version string // the version a move demands a bump of
	}{
		{"rendered trace digest", &e.Trace, hex.EncodeToString(sum[:]), renderBumped, "browser.RenderVersion"},
		{"pixel slice digest", &e.Pixels, store.SliceDigest(v.pix), renderBumped || analysisBumped, "core.AnalysisVersion"},
		{"syscall slice digest", &e.Syscalls, store.SliceDigest(v.sys), renderBumped || analysisBumped, "core.AnalysisVersion"},
		{"category digest", &e.Categories, categoryDigest(v.tr, v.pix, v.sys), renderBumped || analysisBumped, "core.AnalysisVersion"},
	} {
		switch {
		case *p.pin == p.got:
		case update && (p.bumped || *p.pin == ""):
			*p.pin, changed = p.got, true
		case p.bumped || *p.pin == "":
			return false, fmt.Errorf("verify: golden %s: %s %s, pinned %q: re-pin with `webslice verify -exp golden -update`",
				e.Label(), p.what, p.got, *p.pin)
		default:
			return false, fmt.Errorf("verify: golden %s: %s %s, pinned %q, under the same browser.RenderVersion %d and core.AnalysisVersion %d: a change to this output must bump %s, then re-pin with `webslice verify -exp golden -update`",
				e.Label(), p.what, p.got, *p.pin, browser.RenderVersion, core.AnalysisVersion, p.version)
		}
	}
	if err := v.replayAll(); err != nil {
		return false, err
	}
	return changed, v.invariantsAll()
}

// categoryDigest is the hex SHA-256 of the Figure 5 category distribution
// (analysis.Categorize) of each slice in turn: every category's share, the
// coverage and the unnecessary count, as exact bits. It covers what the
// service reports as Result.Categories.
func categoryDigest(t *trace.Trace, rs ...*slicer.Result) string {
	var b []byte
	for _, r := range rs {
		d := analysis.Categorize(t, r)
		for _, c := range analysis.Categories {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Share[c]))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.CoveragePct))
		b = binary.LittleEndian.AppendUint64(b, uint64(d.UnnecessaryTotal))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkCrossFormat runs one golden entry's rendered trace through the
// upload path: the trace is encoded, decoded with OpenV3 and ReadAll, and
// sliced by two profilers over the decoded trace. The first has no store,
// so its forward pass misses. The second finds the first one's forward
// pass in a memory-only store. For both, every pinned digest must
// reproduce, the Figure 5 category digest included, and the Table II
// slice percentages must be identical to the rendered run's. The first
// one's slices must also satisfy the replay oracle against the original
// tape.
func checkCrossFormat(e *GoldenEntry, v *verifiedRun) error {
	var enc bytes.Buffer
	if err := v.tr.WriteV3Blocks(&enc, trace.DefaultBlockRecs); err != nil {
		return fmt.Errorf("verify: crossformat %s: encode: %w", e.Label(), err)
	}
	br, err := trace.OpenV3(enc.Bytes())
	if err != nil {
		return fmt.Errorf("verify: crossformat %s: open: %w", e.Label(), err)
	}
	dec, err := br.ReadAll()
	if err != nil {
		return fmt.Errorf("verify: crossformat %s: decode: %w", e.Label(), err)
	}
	p := core.NewProfiler(dec)
	rs, err := sliceVerified(p)
	if err != nil {
		return fmt.Errorf("verify: crossformat %s: %w", e.Label(), err)
	}
	st, err := store.Open("", 0)
	if err != nil {
		return fmt.Errorf("verify: crossformat %s: %w", e.Label(), err)
	}
	hit := core.NewProfiler(dec)
	key := store.KeyBytes(enc.Bytes())
	hit.UseStore(st, key)
	st.PutDeps(key, p.Deps())
	hrs, err := sliceVerified(hit)
	if err != nil {
		return fmt.Errorf("verify: crossformat %s: forward-pass hit: %w", e.Label(), err)
	}
	for _, run := range []struct {
		name string
		rs   []*slicer.Result
	}{{"forward-pass miss", rs}, {"forward-pass hit", hrs}} {
		if d := store.SliceDigest(run.rs[0]); d != e.Pixels {
			return fmt.Errorf("verify: crossformat %s: decoded pixel slice digest %s after a %s, pinned digest %s", e.Label(), d, run.name, e.Pixels)
		}
		if d := store.SliceDigest(run.rs[1]); d != e.Syscalls {
			return fmt.Errorf("verify: crossformat %s: decoded syscall slice digest %s after a %s, pinned digest %s", e.Label(), d, run.name, e.Syscalls)
		}
		if d := categoryDigest(dec, run.rs[0], run.rs[1]); d != e.Categories {
			return fmt.Errorf("verify: crossformat %s: decoded category digest %s after a %s, pinned digest %s", e.Label(), d, run.name, e.Categories)
		}
		// Table II: the slice percentages must agree exactly.
		for k, pair := range []struct{ ren, dec *slicer.Result }{{v.pix, run.rs[0]}, {v.sys, run.rs[1]}, {v.uni, run.rs[2]}} {
			if pair.ren.Percent() != pair.dec.Percent() || pair.ren.Total != pair.dec.Total {
				return fmt.Errorf("verify: crossformat %s: slice %d percentage after a %s diverges: rendered %.4f%% (%d recs), decoded %.4f%% (%d recs)",
					e.Label(), k, run.name, pair.ren.Percent(), pair.ren.Total, pair.dec.Percent(), pair.dec.Total)
			}
		}
	}
	// Replay-oracle verdicts: slices of the decoded trace must
	// reproduce the criterion bytes on the original tape.
	w := &verifiedRun{bench: v.bench, tr: v.tr, tape: v.tape, deps: p.Deps(), pix: rs[0], sys: rs[1], uni: rs[2]}
	if err := w.replayAll(); err != nil {
		return fmt.Errorf("verify: crossformat: %w", err)
	}
	return w.invariantsAll()
}

// verifyProperty pushes PropertyCount randomized mini-sites through the
// full pipeline and applies the requested oracle to each.
func verifyProperty(phase string, cfg VerifyConfig, stats *VerifyStats) error {
	err := forEach(cfg.Workers, cfg.PropertyCount, func(i int) error {
		v, err := runVerified(sites.Random(cfg.Seed + uint64(i)))
		if err != nil {
			return err
		}
		if phase == "replay" || phase == "all" {
			if err := v.replayAll(); err != nil {
				return err
			}
		}
		if phase == "differential" || phase == "all" {
			if err := v.diffAll(); err != nil {
				return err
			}
		}
		if phase == "invariants" || phase == "all" {
			if err := v.invariantsAll(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	stats.PropertySites = cfg.PropertyCount
	if phase == "replay" || phase == "all" {
		stats.Replays += 3 * cfg.PropertyCount
	}
	if phase == "differential" || phase == "all" {
		stats.Differentials += 2 * cfg.PropertyCount
	}
	if phase == "invariants" || phase == "all" {
		stats.Invariants += cfg.PropertyCount
	}
	return nil
}
