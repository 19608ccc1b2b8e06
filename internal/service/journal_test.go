package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webslice/internal/obs"
)

func journalPath(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.wal")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d pending entries", len(entries))
	}
	specs := map[string]Spec{
		"j1": {Site: "maps", Scale: 0.5, Criteria: "pixels", Trace: []byte("raw-trace-bytes")},
		"j2": {Site: "news", Scale: 1.0, Criteria: "syscalls", Verify: true},
		"j3": {Site: "shop", Scale: 0.25, Criteria: "pixels"},
	}
	for _, id := range []string{"j1", "j2", "j3"} {
		if err := j.LogSubmit(id, specs[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.LogTerminal("j2", StatusDone); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: j1 and j3 are pending in submission order, and j2 is gone.
	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].ID != "j1" || entries[1].ID != "j3" {
		t.Fatalf("pending after reopen = %+v, want j1, j3", entries)
	}
	for _, e := range entries {
		want := specs[e.ID]
		if e.Spec.Site != want.Site || e.Spec.Scale != want.Scale ||
			e.Spec.Criteria != want.Criteria || e.Spec.Verify != want.Verify ||
			!bytes.Equal(e.Spec.Trace, want.Trace) {
			t.Fatalf("spec for %s = %+v, want %+v", e.ID, e.Spec, want)
		}
	}
	if j2.Salvaged() != 0 {
		t.Fatalf("clean journal salvaged %d bytes", j2.Salvaged())
	}

	// Finish the rest; the next open sees an empty journal.
	for _, id := range []string{"j1", "j3"} {
		if err := j2.LogTerminal(id, StatusFailed); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("drained journal still has %d pending", len(entries))
	}
	j3.Close()
}

// TestJournalSubmitRecordBytes: a 'U' record's JSON is Spec's own, and
// with every field set it is byte for byte the record every version 2
// journal on disk holds, so those journals replay and new records read the
// same. The upload and the propagated span stay out of the JSON.
func TestJournalSubmitRecordBytes(t *testing.T) {
	spec := Spec{Site: "maps", Seed: 9, Scale: 0.5, Criteria: "syscalls", Verify: true,
		Trace: []byte("upload"), Origin: "http://co:1", TraceCtx: obs.SpanContext{Trace: "t1", Span: "s1"}}
	rec, err := submitPayload("j1", spec)
	if err != nil {
		t.Fatal(err)
	}
	const meta = `{"id":"j1","spec":{"site":"maps","seed":9,"scale":0.5,"criteria":"syscalls","verify":true,"origin":"http://co:1"}}`
	want := append(binary.AppendUvarint([]byte{recUpload}, uint64(len(meta))), meta...)
	if !bytes.Equal(rec.head, want) || !bytes.Equal(rec.trace, spec.Trace) {
		t.Fatalf("submit record = %q + %q, want %q + %q", rec.head, rec.trace, want, spec.Trace)
	}
}

// olderBuildJournal hand-builds a journal as a build that numbered its jobs
// j000001, j000002, ... left it: headed by the 'M' record of the largest
// number when it last compacted, then two site jobs and an upload submitted
// since, and the terminal record of the first site job. It returns the file
// and the 'U' frames of the two jobs still pending.
func olderBuildJournal(t testing.TB, upload []byte) (data []byte, pending [][]byte) {
	t.Helper()
	var b bytes.Buffer
	b.Write(journalMagic[:])
	frame := func(payload []byte) []byte {
		start := b.Len()
		if err := writeFrame(&b, payload, nil); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(b.Bytes()[start:])
	}
	submit := func(meta string, upload []byte) []byte {
		head := binary.AppendUvarint([]byte{recUpload}, uint64(len(meta)))
		return frame(append(append(head, meta...), upload...))
	}
	frame([]byte(`M{"max_id":40}`))
	submit(`{"id":"j000041","spec":{"site":"maps","scale":0.5}}`, nil)
	site := submit(`{"id":"j000042","spec":{"seed":9,"criteria":"syscalls"}}`, nil)
	up := submit(`{"id":"j000043","spec":{"verify":true,"origin":"http://co:1"}}`, upload)
	frame([]byte(`T{"id":"j000041","status":"done"}`))
	return b.Bytes(), [][]byte{site, up}
}

// TestJournalReplaysOlderBuildsJournal: a journal of numbered jobs headed
// by an 'M' record replays every pending job under its old id. Compaction
// writes each pending record back byte for byte, and no 'M' record. A
// manager resumes the jobs, and the id it issues is none of theirs.
func TestJournalReplaysOlderBuildsJournal(t *testing.T) {
	upload := noiseUpload(t, 16)
	data, pending := olderBuildJournal(t, upload)
	path := journalPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].ID != "j000042" || entries[1].ID != "j000043" ||
		entries[0].Spec.Seed != 9 || entries[0].Spec.Criteria != "syscalls" ||
		!bytes.Equal(entries[1].Spec.Trace, upload) || entries[1].Spec.Origin != "http://co:1" || !entries[1].Spec.Verify {
		t.Fatalf("replayed %+v, want j000042 (seed 9) and j000043 (the upload)", entries)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join(append([][]byte{journalMagic[:]}, pending...), nil); !bytes.Equal(compacted, want) {
		t.Fatalf("compacted journal holds %d bytes, want %d: the header and the pending 'U' frames as written, without an 'M' record", len(compacted), len(want))
	}

	m := New(Config{Workers: 1, Journal: j, Resume: entries, Runner: func(ctx context.Context, spec Spec) (*Result, error) {
		return &Result{Criteria: spec.Criteria}, nil
	}})
	defer m.Close()
	for _, e := range entries {
		waitStatus(t, m, e.ID, StatusDone)
	}
	id, err := m.Submit(Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	if id == "j000041" || id == "j000042" || id == "j000043" {
		t.Fatalf("the manager issued %s, an id the journal already named", id)
	}
}

func TestJournalDuplicateSubmitIgnored(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.LogSubmit("j7", Spec{Site: "maps"}); err != nil {
		t.Fatal(err)
	}
	if err := j.LogSubmit("j7", Spec{Site: "other"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Spec.Site != "maps" {
		t.Fatalf("duplicate submit not deduplicated: %+v", entries)
	}
}

// TestJournalTornTailSalvage simulates a crash mid-append: a partial frame at
// the tail must be discarded while every record before it replays intact.
func TestJournalTornTailSalvage(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.LogSubmit("j1", Spec{Site: "maps"})
	j.LogSubmit("j2", Spec{Site: "news"})
	j.Close()

	// Append half a frame: a length prefix promising more bytes than exist.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xF0, 0x00, 0x00, 0x00, 'S', '{', '"'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail must salvage, got %v", err)
	}
	if len(entries) != 2 || entries[0].ID != "j1" || entries[1].ID != "j2" {
		t.Fatalf("salvaged entries = %+v, want j1, j2", entries)
	}
	if j2.Salvaged() == 0 {
		t.Fatal("Salvaged() = 0, want the torn bytes counted")
	}
	j2.Close()

	// The salvage compacted the tear away: the next open is clean.
	j3, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Salvaged() != 0 {
		t.Fatalf("tear survived compaction: salvaged %d bytes", j3.Salvaged())
	}
	j3.Close()
}

func TestJournalBadHeaderRejected(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("foreign file opened as a journal (would have been overwritten)")
	}
}

// buildCorruptionSeed produces a small, fully valid journal byte string with
// known pending ids for the truncation and bit-flip sweeps below.
func buildCorruptionSeed(t testing.TB) ([]byte, map[string]bool) {
	t.Helper()
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.LogSubmit("j1", Spec{Site: "maps", Scale: 0.5, Criteria: "pixels", Trace: []byte("tr1")})
	j.LogSubmit("j2", Spec{Site: "news", Criteria: "syscalls"})
	j.LogTerminal("j1", StatusDone)
	j.LogSubmit("j3", Spec{Site: "shop", Criteria: "pixels"})
	j.LogSubmit("j4", Spec{Criteria: "pixels", Trace: []byte("tr4")})
	// Close without compacting so the byte string retains the full history
	// (mixed submit + terminal records), which is the interesting shape.
	j.mu.Lock()
	j.f.Close()
	j.f = nil
	j.disabled = true
	j.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, map[string]bool{"j2": true, "j3": true, "j4": true}
}

// version1Journal hand-builds the journal a version 1 binary leaves after
// compaction and two submissions: an upload still pending, in an 'S'
// record that holds the whole spec as JSON with the trace in base64, and
// a site job that finished.
func version1Journal(t testing.TB, upload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("WSJL\x01")
	submit := func(id string, spec map[string]any) []byte {
		rec, err := json.Marshal(map[string]any{"id": id, "spec": spec})
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{'S'}, rec...)
	}
	for _, payload := range [][]byte{
		append([]byte{recMeta}, `{"max_id":0}`...),
		submit("j000001", map[string]any{"criteria": "syscalls", "verify": true, "trace": upload, "origin": "http://coord:8080"}),
		submit("j000002", map[string]any{"site": "maps", "scale": 0.5, "criteria": "pixels"}),
		append([]byte{recTerminal}, `{"id":"j000002","status":"done"}`...),
	} {
		if err := writeFrame(&b, payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestJournalRefusesVersion1: a journal a version 1 binary wrote, with an
// upload pending, fails OpenJournal with ErrJournalCorrupt. The file is
// left as it was, never compacted down to the jobs this build can read.
func TestJournalRefusesVersion1(t *testing.T) {
	data := version1Journal(t, []byte("WSLT upload bytes"))
	path := journalPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(path)
	if !errors.Is(err, ErrJournalCorrupt) || j != nil || entries != nil {
		t.Fatalf("OpenJournal of a version 1 journal = %d entries, %v; want ErrJournalCorrupt", len(entries), err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the refused journal changed on disk (%v)", err)
	}
}

// TestJournalPayloadBoundFitsLargestUpload: replay refuses a frame longer
// than maxJournalPayload, and everything after it, so the bound must admit
// the longest submit record of a maxTraceBody upload.
func TestJournalPayloadBoundFitsLargestUpload(t *testing.T) {
	const id = "j999999999"
	spec := Spec{Criteria: "syscalls", Verify: true, Origin: "http://" + strings.Repeat("coordinator", 200) + ":8080"}
	rec, err := submitPayload(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.head) + maxTraceBody; n > maxJournalPayload {
		t.Errorf("a %d-byte upload makes a %d-byte submit record; replay accepts at most %d", maxTraceBody, n, maxJournalPayload)
	}
}

// replayCorrupted opens a journal file holding data and returns the pending
// ids, tolerating (only) ErrJournalCorrupt. Panics propagate to the test.
func replayCorrupted(t *testing.T, dir string, data []byte) map[string]bool {
	t.Helper()
	path := filepath.Join(dir, "wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(path)
	if err != nil {
		return nil
	}
	defer j.Close()
	got := make(map[string]bool, len(entries))
	for _, e := range entries {
		got[e.ID] = true
	}
	return got
}

// TestJournalTruncationNeverPanics replays every possible truncated prefix of
// a valid journal: none may panic, and each salvages only (a prefix-closed
// subset of) the jobs the full journal held pending.
func TestJournalTruncationNeverPanics(t *testing.T) {
	data, want := buildCorruptionSeed(t)
	dir := t.TempDir()
	for n := 0; n <= len(data); n++ {
		got := replayCorrupted(t, dir, data[:n])
		for id := range got {
			if !want[id] && id != "j1" {
				t.Fatalf("truncation at %d fabricated job %q", n, id)
			}
		}
	}
}

// TestJournalBitFlipsNeverPanic flips every bit of a valid journal one at a
// time: replay must never panic and never yield a job id the pristine
// journal did not contain.
func TestJournalBitFlipsNeverPanic(t *testing.T) {
	data, want := buildCorruptionSeed(t)
	dir := t.TempDir()
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit += stride {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			got := replayCorrupted(t, dir, mut)
			for id := range got {
				if !want[id] && id != "j1" {
					t.Fatalf("bit flip at %d.%d fabricated job %q", off, bit, id)
				}
			}
		}
	}
}

// FuzzJournalReplayNeverPanics feeds arbitrary bytes through the full
// open/replay/compact path. The only acceptable outcomes are a clean open or
// an error — never a panic, and never a fabricated giant allocation.
func FuzzJournalReplayNeverPanics(f *testing.F) {
	seed, _ := buildCorruptionSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(version1Journal(f, []byte("WSLT upload bytes")))
	f.Add([]byte{})
	f.Add([]byte("WSJL"))
	f.Add(append(append([]byte(nil), journalMagic[:]...), 0xFF, 0xFF, 0xFF, 0xFF))
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		j, _, err := OpenJournal(path)
		if err == nil {
			j.Close()
		}
	})
}
