package service

import (
	"bytes"
	"strings"
	"testing"

	"webslice/internal/browser"
	"webslice/internal/sites"
	"webslice/internal/store"
)

// TestV3TraceSubmissionMatchesV2: an uploaded trace, decoded from the
// submitted bytes, must produce the same slice digest, tallies, and
// category breakdown as the site job that renders the same trace. A trace in the
// retired flat v2 format is refused at submission, naming its version.
func TestV3TraceSubmissionMatchesV2(t *testing.T) {
	b, err := sites.ByName("amazon-desktop", sites.Options{Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	br := browser.New(b.Site, b.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		t.Fatal(br.Errors[0])
	}
	var v3 bytes.Buffer
	if err := br.M.Tr.WriteV3(&v3); err != nil {
		t.Fatal(err)
	}

	st, _ := store.Open(t.TempDir(), 0)
	m := New(Config{Workers: 2, Store: st})
	defer m.Close()

	idSite, err := m.Submit(Spec{Site: "amazon-desktop", Scale: 0.04, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idSite, StatusDone)
	resSite, _ := m.Result(idSite)

	idV3, err := m.Submit(Spec{Trace: v3.Bytes(), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idV3, StatusDone)
	resV3, _ := m.Result(idV3)

	if resV3.SliceDigest != resSite.SliceDigest {
		t.Fatalf("slice digests differ: %q (upload) vs %q (site job)", resV3.SliceDigest, resSite.SliceDigest)
	}
	if resV3.Total != resSite.Total || resV3.SliceCount != resSite.SliceCount {
		t.Fatalf("tallies differ: %d/%d (upload) vs %d/%d (site job)",
			resV3.SliceCount, resV3.Total, resSite.SliceCount, resSite.Total)
	}
	for cat, share := range resSite.Categories {
		if resV3.Categories[cat] != share {
			t.Fatalf("category %q differs: %v (upload) vs %v (site job)", cat, resV3.Categories[cat], share)
		}
	}

	// The same bytes under a version-2 header.
	v2 := append([]byte("WSLT\x02"), v3.Bytes()[5:]...)
	if _, err := m.Submit(Spec{Trace: v2}); err == nil || !strings.Contains(err.Error(), "format version 2") {
		t.Fatalf("v2 submit = %v, want a refusal naming format version 2", err)
	}

	// A corrupted v3 body passes the version sniff but fails in the worker
	// with a decode error, like any other bad trace.
	corrupt := append([]byte(nil), v3.Bytes()...)
	corrupt[v3.Len()/2] ^= 0x01
	idBad, err := m.Submit(Spec{Trace: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idBad, StatusFailed)
}
