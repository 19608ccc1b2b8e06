package experiments

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/sites"
	"webslice/internal/store"
)

const goldenPath = "../../examples/golden/corpus.json"

// TestGoldenCorpus re-runs every committed golden site and demands the slice
// digests match byte-for-byte, then replays and invariant-checks each slice.
// A mismatch here means slicing behavior changed: if that was intended,
// regenerate with `webslice verify -exp golden -update`.
func TestGoldenCorpus(t *testing.T) {
	st, err := ExecuteVerify("golden", VerifyConfig{GoldenPath: goldenPath})
	if err != nil {
		t.Fatal(err)
	}
	if st.GoldenSites < 8 {
		t.Errorf("golden corpus has %d sites, want >= 8", st.GoldenSites)
	}
	if st.Replays != 3*st.GoldenSites {
		t.Errorf("replayed %d slices for %d sites, want 3 per site", st.Replays, st.GoldenSites)
	}
}

// TestGoldenCorpusCrossFormat encodes and decodes every golden site, as the
// service does an upload, and demands that slicing the decoded trace, after
// a forward-pass miss and after a store hit, reproduce the exact pinned
// digests, Table II percentages, and Figure 5 category distribution of the
// rendered trace. If it fails, the v3 round trip lost something a slice
// depends on.
func TestGoldenCorpusCrossFormat(t *testing.T) {
	st, err := ExecuteVerify("crossformat", VerifyConfig{GoldenPath: goldenPath})
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossFormat < 8 {
		t.Errorf("cross-format phase covered %d sites, want >= 8", st.CrossFormat)
	}
	if st.Replays != 3*st.CrossFormat {
		t.Errorf("replayed %d slices for %d sites, want 3 per site", st.Replays, st.CrossFormat)
	}
}

// TestGoldenCorpusDigestsPinned guards the corpus file itself: every entry
// must carry non-empty digests (an empty digest would make the golden phase
// vacuously "pass" after a careless regeneration), including a trace pin
// and a category pin, and the pins must be for the current
// browser.RenderVersion and core.AnalysisVersion (a bump without a re-pin
// would let the pins it guards move unchecked).
func TestGoldenCorpusDigestsPinned(t *testing.T) {
	c, err := LoadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if c.RenderVersion != browser.RenderVersion {
		t.Errorf("golden corpus pins render_version %d, browser.RenderVersion is %d: re-pin with `webslice verify -exp golden -update`",
			c.RenderVersion, browser.RenderVersion)
	}
	if c.AnalysisVersion != core.AnalysisVersion {
		t.Errorf("golden corpus pins analysis_version %d, core.AnalysisVersion is %d: re-pin with `webslice verify -exp golden -update`",
			c.AnalysisVersion, core.AnalysisVersion)
	}
	for _, e := range c.Sites {
		if len(e.Pixels) != 64 || len(e.Syscalls) != 64 || len(e.Categories) != 64 {
			t.Errorf("golden %s: digests not pinned (pixels %q, syscalls %q, categories %q)", e.Label(), e.Pixels, e.Syscalls, e.Categories)
		}
		if b, err := hex.DecodeString(e.Trace); err != nil || len(b) != 32 {
			t.Errorf("golden %s: trace digest not pinned (%q)", e.Label(), e.Trace)
		}
	}
}

// seedEntry returns the corpus's first property-seed entry, its cheapest.
func seedEntry(t *testing.T) GoldenEntry {
	t.Helper()
	c, err := LoadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Sites {
		if e.Seed != 0 {
			return e
		}
	}
	t.Fatal("no seed entry in corpus")
	return GoldenEntry{}
}

// TestVerifyDetectsDigestDrift corrupts one digest in a copy of the corpus
// and demands the golden phase fails naming the site.
func TestVerifyDetectsDigestDrift(t *testing.T) {
	entry := seedEntry(t)
	entry.Pixels = strings.Repeat("0", 64)
	bad := filepath.Join(t.TempDir(), "corpus.json")
	writeGoldenFor(t, bad, &GoldenCorpus{Sites: []GoldenEntry{entry}})
	_, err := ExecuteVerify("golden", VerifyConfig{GoldenPath: bad})
	if err == nil {
		t.Fatal("golden phase accepted a corrupted digest")
	}
	if !strings.Contains(err.Error(), entry.Label()) {
		t.Errorf("error does not name the drifted site: %v", err)
	}
}

// TestCrossFormatDetectsDigestDrift: the cross-format phase slices the
// decoded upload and fails, naming the site, when a slice digest differs
// from its pin.
func TestCrossFormatDetectsDigestDrift(t *testing.T) {
	entry := seedEntry(t)
	entry.Pixels = strings.Repeat("0", 64)
	bad := filepath.Join(t.TempDir(), "corpus.json")
	writeGoldenFor(t, bad, &GoldenCorpus{Sites: []GoldenEntry{entry}})
	_, err := ExecuteVerify("crossformat", VerifyConfig{GoldenPath: bad})
	if err == nil || !strings.Contains(err.Error(), "crossformat "+entry.Label()) || !strings.Contains(err.Error(), "decoded pixel slice digest") {
		t.Fatalf("cross-format phase with a drifted pixel pin: err = %v, want one naming the site and the decoded pixel digest", err)
	}
}

// TestVerifyDetectsTraceDriftWithoutBump: a rendered trace that differs
// from its pin under an unchanged RenderVersion fails the golden phase,
// naming the site and the version, and -update refuses to re-pin it and
// leaves the file alone. With the corpus one version behind (a bump),
// -update re-pins the trace and records the current version.
func TestVerifyDetectsTraceDriftWithoutBump(t *testing.T) {
	entry := seedEntry(t)
	pin := entry.Trace
	entry.Trace = strings.Repeat("0", 64)
	bad := filepath.Join(t.TempDir(), "corpus.json")
	writeGoldenFor(t, bad, &GoldenCorpus{RenderVersion: browser.RenderVersion, AnalysisVersion: core.AnalysisVersion, Sites: []GoldenEntry{entry}})
	before, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}

	_, err = ExecuteVerify("golden", VerifyConfig{GoldenPath: bad})
	if err == nil {
		t.Fatal("golden phase accepted a changed trace without a RenderVersion bump")
	}
	if !strings.Contains(err.Error(), entry.Label()) || !strings.Contains(err.Error(), "RenderVersion") {
		t.Errorf("error does not name the site and RenderVersion: %v", err)
	}
	if _, err := ExecuteVerify("golden", VerifyConfig{GoldenPath: bad, Update: true}); err == nil {
		t.Fatal("-update re-pinned a changed trace without a RenderVersion bump")
	}
	if after, _ := os.ReadFile(bad); !bytes.Equal(after, before) {
		t.Fatalf("refused -update rewrote the corpus:\n%s", after)
	}

	writeGoldenFor(t, bad, &GoldenCorpus{RenderVersion: browser.RenderVersion - 1, AnalysisVersion: core.AnalysisVersion, Sites: []GoldenEntry{entry}})
	if _, err := ExecuteVerify("golden", VerifyConfig{GoldenPath: bad, Update: true}); err != nil {
		t.Fatalf("-update after a bump: %v", err)
	}
	got, err := LoadGolden(bad)
	if err != nil {
		t.Fatal(err)
	}
	if got.RenderVersion != browser.RenderVersion || got.Sites[0].Trace != pin {
		t.Errorf("-update after a bump wrote render_version %d, trace %s; want %d, %s",
			got.RenderVersion, got.Sites[0].Trace, browser.RenderVersion, pin)
	}
}

// TestVerifyDetectsSliceDriftWithoutBump: a slice or category digest that
// differs from its pin while neither version moved fails the golden phase,
// naming the site and core.AnalysisVersion, and -update refuses to re-pin
// it and leaves the file alone. With the corpus one analysis version
// behind (a bump), -update re-pins it and records the current version.
func TestVerifyDetectsSliceDriftWithoutBump(t *testing.T) {
	for _, pin := range []struct {
		name  string
		field func(*GoldenEntry) *string
	}{
		{"pixels", func(e *GoldenEntry) *string { return &e.Pixels }},
		{"categories", func(e *GoldenEntry) *string { return &e.Categories }},
	} {
		entry := seedEntry(t)
		want := *pin.field(&entry)
		*pin.field(&entry) = strings.Repeat("0", 64)
		bad := filepath.Join(t.TempDir(), "corpus.json")
		writeGoldenFor(t, bad, &GoldenCorpus{RenderVersion: browser.RenderVersion, AnalysisVersion: core.AnalysisVersion, Sites: []GoldenEntry{entry}})
		before, err := os.ReadFile(bad)
		if err != nil {
			t.Fatal(err)
		}

		_, err = ExecuteVerify("golden", VerifyConfig{GoldenPath: bad})
		if err == nil {
			t.Fatalf("golden phase accepted a changed %s pin without an AnalysisVersion bump", pin.name)
		}
		if !strings.Contains(err.Error(), entry.Label()) || !strings.Contains(err.Error(), "must bump core.AnalysisVersion") {
			t.Errorf("%s: error does not name the site and AnalysisVersion: %v", pin.name, err)
		}
		if _, err := ExecuteVerify("golden", VerifyConfig{GoldenPath: bad, Update: true}); err == nil {
			t.Fatalf("-update re-pinned a changed %s pin without an AnalysisVersion bump", pin.name)
		}
		if after, _ := os.ReadFile(bad); !bytes.Equal(after, before) {
			t.Fatalf("refused -update rewrote the corpus:\n%s", after)
		}

		writeGoldenFor(t, bad, &GoldenCorpus{RenderVersion: browser.RenderVersion, AnalysisVersion: core.AnalysisVersion - 1, Sites: []GoldenEntry{entry}})
		if _, err := ExecuteVerify("golden", VerifyConfig{GoldenPath: bad, Update: true}); err != nil {
			t.Fatalf("%s: -update after a bump: %v", pin.name, err)
		}
		got, err := LoadGolden(bad)
		if err != nil {
			t.Fatal(err)
		}
		if got.AnalysisVersion != core.AnalysisVersion || *pin.field(&got.Sites[0]) != want {
			t.Errorf("-update after a bump wrote analysis_version %d, %s %s; want %d, %s",
				got.AnalysisVersion, pin.name, *pin.field(&got.Sites[0]), core.AnalysisVersion, want)
		}
	}
}

func writeGoldenFor(t *testing.T, path string, c *GoldenCorpus) {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyPropertySites pushes randomized mini-sites through the full
// slice→replay→diff→invariants pipeline. The count is kept modest here so
// the suite stays fast under -race; `webslice verify -exp all` (run by
// ci.sh) covers the full 50-site sweep.
func TestVerifyPropertySites(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	st, err := ExecuteVerify("all", VerifyConfig{PropertyCount: n, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if st.PropertySites != n || st.Replays != 3*n || st.Differentials != 2*n || st.Invariants != n {
		t.Errorf("unexpected stats: %+v", st)
	}
}

// TestVerifyRejectsUnknownPhase pins the phase whitelist.
func TestVerifyRejectsUnknownPhase(t *testing.T) {
	if _, err := ExecuteVerify("bogus", VerifyConfig{}); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

// TestRandomSitesAreDeterministic: the same seed must produce the same trace
// bytes (and hence the same digests) forever — a property failure reported by
// seed has to reproduce.
func TestRandomSitesAreDeterministic(t *testing.T) {
	a, err := runVerified(sites.Random(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runVerified(sites.Random(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.tr.Recs) != len(b.tr.Recs) {
		t.Fatalf("seed 42 traced %d then %d records", len(a.tr.Recs), len(b.tr.Recs))
	}
	if store.SliceDigest(a.pix) != store.SliceDigest(b.pix) || store.SliceDigest(a.sys) != store.SliceDigest(b.sys) {
		t.Error("seed 42 produced different slice digests across runs")
	}
}

// TestDiffCatchesABrokenOptimizedResult makes sure the differential path is
// live: perturbing the optimized slice must trip refslicer.Equal.
func TestDiffCatchesABrokenOptimizedResult(t *testing.T) {
	v, err := runVerified(sites.Random(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.diffAll(); err != nil {
		t.Fatalf("intact run failed differential: %v", err)
	}
	// Flip the first in-slice record out.
	for i := 0; i < v.pix.Total; i++ {
		if v.pix.InSlice.Get(i) {
			v.pix.InSlice[i>>6] &^= 1 << (uint(i) & 63)
			v.pix.SliceCount--
			break
		}
	}
	if err := v.diffAll(); err == nil {
		t.Error("differential accepted a perturbed optimized slice")
	}
}

// TestVerifyAllUpdateCrossChecksNewPins: `verify -exp all` runs each
// golden site once for both the golden and the cross-format checks. A
// stale slice pin fails the sweep; after an AnalysisVersion bump, under
// -update the golden checks re-pin it, and the cross-format checks of the
// same run compare against the new pin, so the sweep passes and writes it.
func TestVerifyAllUpdateCrossChecksNewPins(t *testing.T) {
	entry := seedEntry(t)
	pin := entry.Pixels
	entry.Pixels = strings.Repeat("0", 64)
	stale := filepath.Join(t.TempDir(), "corpus.json")
	writeGoldenFor(t, stale, &GoldenCorpus{RenderVersion: browser.RenderVersion, AnalysisVersion: core.AnalysisVersion - 1, Sites: []GoldenEntry{entry}})

	if _, err := ExecuteVerify("all", VerifyConfig{GoldenPath: stale, PropertyCount: 1}); err == nil {
		t.Fatal("verify -exp all accepted a stale pixel pin")
	}
	st, err := ExecuteVerify("all", VerifyConfig{GoldenPath: stale, PropertyCount: 1, Update: true})
	if err != nil {
		t.Fatalf("verify -exp all -update: %v", err)
	}
	if st.GoldenSites != 1 || st.CrossFormat != 1 || st.Updated != 1 || st.Replays != 3*3 {
		t.Errorf("stats = %+v, want 1 golden and 1 cross-format site, 1 re-pin, 9 replays", st)
	}
	got, err := LoadGolden(stale)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sites[0].Pixels != pin {
		t.Errorf("-update wrote pixel pin %s, want %s", got.Sites[0].Pixels, pin)
	}
}
