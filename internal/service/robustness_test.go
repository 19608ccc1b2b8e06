package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webslice/internal/isa"
	"webslice/internal/trace"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestErrorFailsJobOnFirstAttempt: an error is final. The runner is called
// once, and the job fails with its error after one attempt, with nothing
// counted as retried: the pipeline is a pure function of the job's trace,
// so a second attempt could only repeat the error.
func TestErrorFailsJobOnFirstAttempt(t *testing.T) {
	var calls atomic.Int64
	m := New(Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			calls.Add(1)
			return nil, errors.New("hard failure")
		},
	})
	id, err := m.Submit(Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusFailed)
	m.Close()
	if info, _ := m.Info(id); !strings.Contains(info.Error, "hard failure") || info.Attempts != 1 {
		t.Fatalf("job = %s (%q) after %d attempts, want failed with the runner's error after 1", info.Status, info.Error, info.Attempts)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner ran %d times, want 1", n)
	}
	if n := m.Metrics().Counter("jobs_retried").Value(); n != 0 {
		t.Fatalf("jobs_retried = %d, want 0", n)
	}
}

// unbalancedUpload encodes a two-record trace that decodes cleanly but that
// the forward pass refuses: its second record runs in another function
// without a call.
func unbalancedUpload(t *testing.T) []byte {
	t.Helper()
	tr := trace.New()
	tr.Threads = []trace.ThreadInfo{{ID: 0, Name: "main"}}
	for _, name := range []string{"caller", "stranger"} {
		fn, err := tr.AddFunc(name, "v8")
		if err != nil {
			t.Fatal(err)
		}
		tr.Recs = append(tr.Recs, trace.Rec{PC: trace.MakePC(fn, 0), Kind: isa.KindNop})
	}
	var buf bytes.Buffer
	if err := tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnbalancedUploadFailsOnce: through the default runner, an upload that
// passes admission and decodes, but whose records switch function without
// a call, fails on its first attempt naming the forward pass's refusal. A
// retry would decode the same bytes and be refused again.
func TestUnbalancedUploadFailsOnce(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	id, err := m.Submit(Spec{Trace: unbalancedUpload(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusFailed)
	if info, _ := m.Info(id); !strings.Contains(info.Error, "unbalanced call/return") || info.Attempts != 1 {
		t.Fatalf("unbalanced upload = %s (%q) after %d attempts, want failed naming the unbalanced call/return after 1", info.Status, info.Error, info.Attempts)
	}
	if n := m.Metrics().Counter("jobs_retried").Value(); n != 0 {
		t.Fatalf("jobs_retried = %d, want 0", n)
	}
}

// TestPanicIsolationAndQuarantine: a panicking runner neither kills the
// daemon nor crash-loops — the second panic quarantines the job, and the
// pool keeps serving healthy work afterwards.
func TestPanicIsolationAndQuarantine(t *testing.T) {
	var calls atomic.Int64
	m := New(Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			calls.Add(1)
			if spec.Site == "bing" {
				panic("poisoned job")
			}
			return &Result{}, nil
		},
	})
	bad, err := m.Submit(Spec{Site: "bing"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "quarantine", func() bool { info, _ := m.Info(bad); return info.Status.Terminal() })
	info, _ := m.Info(bad)
	if info.Status != StatusQuarantined {
		t.Fatalf("panicking job = %s (%q), want quarantined", info.Status, info.Error)
	}
	if !strings.Contains(info.Error, "panicked") || !strings.Contains(info.Error, "poisoned job") {
		t.Fatalf("quarantine error %q does not name the panic", info.Error)
	}
	q := m.Quarantined()
	if len(q) != 1 || q[0].ID != bad {
		t.Fatalf("Quarantined() = %+v, want [%s]", q, bad)
	}
	if n := m.Metrics().Counter("jobs_panicked").Value(); n != 2 {
		t.Fatalf("jobs_panicked = %d, want 2 (one retry, then quarantine)", n)
	}
	if n := m.Metrics().Counter("jobs_quarantined").Value(); n != 1 {
		t.Fatalf("jobs_quarantined = %d, want 1", n)
	}
	// The worker survived both panics: a healthy job still completes.
	good, err := m.Submit(Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, good, StatusDone)
	m.Close()
	if len(m.Quarantined()) != 1 {
		t.Fatal("quarantine list changed across drain")
	}
}

// TestJobTimeoutFailsWithoutRetry: the per-job deadline converts a hung
// runner into a failed job (not a retried one — rerunning a job that
// burned its whole budget would double the damage).
func TestJobTimeoutFailsWithoutRetry(t *testing.T) {
	var calls atomic.Int64
	m := New(Config{
		Workers:    1,
		JobTimeout: 20 * time.Millisecond,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			calls.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	id, err := m.Submit(Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "timeout", func() bool { info, _ := m.Info(id); return info.Status.Terminal() })
	info, _ := m.Info(id)
	if info.Status != StatusFailed || !strings.Contains(info.Error, "deadline") {
		t.Fatalf("timed-out job = %s (%q), want failed with deadline error", info.Status, info.Error)
	}
	if calls.Load() != 1 {
		t.Fatalf("timed-out job ran %d times, want 1 (no retry)", calls.Load())
	}
	m.Close()
}

// TestTraceAdmissionLimit: oversized traces are rejected at submission
// with the typed error, before consuming a queue slot.
func TestTraceAdmissionLimit(t *testing.T) {
	m := New(Config{
		Workers:       1,
		MaxTraceBytes: 8,
		Runner:        func(context.Context, Spec) (*Result, error) { return &Result{}, nil },
	})
	defer m.Close()
	_, err := m.Submit(Spec{Trace: []byte("WSLT plus way more bytes than eight")})
	if !errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("oversized submit = %v, want ErrTraceTooLarge", err)
	}
	if n := m.Metrics().Counter("jobs_submitted").Value(); n != 0 {
		t.Fatalf("jobs_submitted = %d after rejected submit", n)
	}
}

// declaredRecsUpload hand-builds a v3 upload, framed block by block as
// the trace package's own tests do, whose index declares blocks blocks of
// 2^20 records each. The payloads are empty, so the upload takes about 14
// bytes a block, but every checksum is valid and OpenV3 accepts it.
func declaredRecsUpload(blocks int) []byte {
	const blockRecs = 1 << 20
	out := binary.AppendUvarint([]byte("WSLT"), 3)
	out = binary.AppendUvarint(out, blockRecs)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	var offs []int
	for i := 0; i < blocks; i++ {
		offs = append(offs, len(out))
		out = append(out, 0x01, 0) // block tag, empty payload
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(nil))
	}
	footOff := len(out)
	foot := make([]byte, 5) // no functions, threads, syscalls, markers or clock points
	out = append(out, 0x02, byte(len(foot)))
	out = append(out, foot...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(foot))
	indexOff := len(out)
	idx := binary.AppendUvarint(nil, uint64(footOff))
	idx = binary.AppendUvarint(idx, uint64(blocks))
	prev := 0
	for _, off := range offs {
		idx = binary.AppendUvarint(idx, uint64(off-prev))
		idx = binary.AppendUvarint(idx, blockRecs)
		prev = off
	}
	out = append(out, idx...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
	tail := binary.LittleEndian.AppendUint64(nil, uint64(indexOff))
	tail = binary.LittleEndian.AppendUint32(tail, crc32.ChecksumIEEE(tail))
	out = append(out, tail...)
	return append(out, "WS3K"...)
}

// TestUploadAdmittedOnDecodedSize: an upload whose index declares more than
// maxUploadRecs records is refused at submission, however few bytes it
// takes, with ErrTraceTooLarge and a 413, before it consumes a queue slot.
// One declaring exactly maxUploadRecs is admitted.
func TestUploadAdmittedOnDecodedSize(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 1})
	atLimit := maxUploadRecs >> 20 // blocks of 2^20 records
	over := declaredRecsUpload(atLimit + 1)
	if _, err := m.Submit(Spec{Trace: over}); !errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("submit of a %d-byte upload declaring %d records = %v, want ErrTraceTooLarge", len(over), (atLimit+1)<<20, err)
	}
	resp, err := http.Post(srv.URL+"/jobs/trace", "application/octet-stream", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of a %d-byte upload declaring %d records = %d, want 413", len(over), (atLimit+1)<<20, resp.StatusCode)
	}
	if n := m.Metrics().Counter("jobs_submitted").Value(); n != 0 {
		t.Fatalf("jobs_submitted = %d after rejected submits", n)
	}
	if _, err := m.Submit(Spec{Trace: declaredRecsUpload(atLimit)}); err != nil {
		t.Fatalf("submit of an upload declaring exactly maxUploadRecs records: %v", err)
	}
}

// TestJournalCrashRecovery is the durability contract end to end: kill -9
// (simulated) after acknowledging jobs, reopen, and every acknowledged job
// runs to completion under its original ID.
func TestJournalCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	started := make(chan struct{}, 8)
	m := New(Config{
		Workers: 1,
		Journal: j,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			started <- struct{}{}
			<-ctx.Done() // hold the job until the crash
			return nil, ErrCanceled
		},
	})
	ids := make([]string, 3)
	for i := range ids {
		id, err := m.Submit(Spec{Site: "maps", Scale: 0.1 * float64(i+1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	<-started // first job is mid-run when the "power" goes
	m.Kill()

	j2, pending2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending2) != 3 {
		t.Fatalf("replay found %d pending jobs, want 3 (acknowledged work lost)", len(pending2))
	}
	var ran atomic.Int64
	m2 := New(Config{
		Workers: 2,
		Journal: j2,
		Resume:  pending2,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			ran.Add(1)
			return &Result{}, nil
		},
	})
	for _, id := range ids {
		waitStatus(t, m2, id, StatusDone)
	}
	// New work after recovery must not collide with replayed IDs.
	id4, err := m2.Submit(Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if id4 == old {
			t.Fatalf("post-recovery submission reused replayed id %s", id4)
		}
	}
	waitStatus(t, m2, id4, StatusDone)
	m2.Close()

	j3, pending3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending3) != 0 {
		t.Fatalf("clean shutdown left %d jobs pending in the journal", len(pending3))
	}
	j3.Close()
}

// TestDrainPersistsQueuedJobs is the graceful-shutdown regression: a drain
// that times out must not abandon queued-but-unstarted jobs — they stay
// pending in the journal and the next boot finishes them.
func TestDrainPersistsQueuedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	m := New(Config{
		Workers: 1,
		Journal: j,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			started <- struct{}{}
			<-ctx.Done() // never finishes on its own
			return nil, ErrCanceled
		},
	})
	idA, err := m.Submit(Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // A is running (and stuck)
	idB, err := m.Submit(Spec{Site: "bing"})
	if err != nil {
		t.Fatal(err)
	}
	if done := m.Drain(30 * time.Millisecond); done {
		t.Fatal("Drain reported a clean finish with a stuck job")
	}

	j2, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range pending {
		got[e.ID] = true
	}
	if !got[idA] || !got[idB] || len(pending) != 2 {
		t.Fatalf("journal after timed-out drain holds %v, want both %s and %s", pending, idA, idB)
	}
	m2 := New(Config{
		Workers: 1,
		Journal: j2,
		Resume:  pending,
		Runner:  func(context.Context, Spec) (*Result, error) { return &Result{}, nil },
	})
	waitStatus(t, m2, idA, StatusDone)
	waitStatus(t, m2, idB, StatusDone)
	m2.Close()
}

// TestDrainCompletesQueuedJobsInTime: when jobs can finish within the
// deadline, Drain finishes them all and reports a clean shutdown.
func TestDrainCompletesQueuedJobsInTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	m := New(Config{
		Workers: 2,
		Journal: j,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			ran.Add(1)
			return &Result{}, nil
		},
	})
	for i := 0; i < 6; i++ {
		if _, err := m.Submit(Spec{Site: "maps"}); err != nil {
			t.Fatal(err)
		}
	}
	if done := m.Drain(30 * time.Second); !done {
		t.Fatal("Drain timed out with fast jobs")
	}
	if ran.Load() != 6 {
		t.Fatalf("drain ran %d of 6 jobs", ran.Load())
	}
	j2, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("clean drain left %d pending", len(pending))
	}
	j2.Close()
}
