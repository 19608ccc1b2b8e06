package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webslice/internal/cdg"
)

// flakyFS wraps OSFS and fails selected operations with a synthetic I/O
// error while `failing` is set.
type flakyFS struct {
	OSFS
	failing atomic.Bool
	ops     atomic.Int64 // disk ops attempted while failing
}

var errInjected = errors.New("injected I/O error")

func (f *flakyFS) ReadFile(name string) ([]byte, error) {
	if f.failing.Load() {
		f.ops.Add(1)
		return nil, fmt.Errorf("read %s: %w", name, errInjected)
	}
	return f.OSFS.ReadFile(name)
}

func (f *flakyFS) CreateTemp(dir, pattern string) (File, error) {
	if f.failing.Load() {
		f.ops.Add(1)
		return nil, fmt.Errorf("createtemp: %w", errInjected)
	}
	return f.OSFS.CreateTemp(dir, pattern)
}

func TestBreakerOpensShedsAndRecovers(t *testing.T) {
	fsys := &flakyFS{}
	dir := t.TempDir()
	s, err := OpenFS(dir, 0, fsys)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	s.br.now = func() time.Time { return now }
	s.ConfigureBreaker(3, time.Second)

	// Healthy disk: a put lands on disk and a cold read works.
	s.Put("cdg", "k0", []byte("payload"))
	if st := s.Stats(); st.BreakerState != int64(BreakerClosed) || st.DiskErrors != 0 {
		t.Fatalf("stats after healthy put = %+v", st)
	}

	// Disk starts erroring: three failing operations trip the breaker.
	fsys.failing.Store(true)
	for i := 0; i < 3; i++ {
		s.Put("cdg", fmt.Sprintf("fail%d", i), []byte("x"))
	}
	if st := s.Stats(); st.BreakerState != int64(BreakerOpen) || st.BreakerTrips != 1 || st.DiskErrors != 3 {
		t.Fatalf("stats after trip = %+v, want open/1 trip/3 errors", st)
	}

	// Open breaker: disk is not touched at all, memory still serves.
	opsBefore := fsys.ops.Load()
	s.Put("cdg", "shed", []byte("mem-only"))
	if got, ok, err := s.Get("cdg", "shed"); !ok || err != nil || string(got) != "mem-only" {
		t.Fatalf("memory layer broken while breaker open: %q %v %v", got, ok, err)
	}
	if _, ok, err := s.Get("cdg", "never-stored"); ok || err != nil {
		t.Fatalf("shed Get = %v, %v, want clean miss", ok, err)
	}
	if fsys.ops.Load() != opsBefore {
		t.Fatalf("breaker open but %d disk ops ran", fsys.ops.Load()-opsBefore)
	}
	if st := s.Stats(); st.BreakerShed == 0 {
		t.Fatalf("stats = %+v, want shed operations counted", st)
	}

	// Cooldown elapses but the disk is still bad: the half-open probe fails
	// and the breaker re-opens.
	now = now.Add(2 * time.Second)
	s.Put("cdg", "probe1", []byte("x"))
	if st := s.Stats(); st.BreakerState != int64(BreakerOpen) || st.BreakerTrips != 2 {
		t.Fatalf("stats after failed probe = %+v, want re-opened/2 trips", st)
	}

	// Disk recovers: after the next cooldown the probe succeeds and the
	// breaker closes; disk persistence resumes.
	fsys.failing.Store(false)
	now = now.Add(2 * time.Second)
	s.Put("cdg", "probe2", []byte("back"))
	if st := s.Stats(); st.BreakerState != int64(BreakerClosed) {
		t.Fatalf("stats after successful probe = %+v, want closed", st)
	}
	cold, _ := Open(dir, 0)
	if got, ok, _ := cold.Get("cdg", "probe2"); !ok || string(got) != "back" {
		t.Fatalf("post-recovery artifact not on disk: %q %v", got, ok)
	}
}

func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	b := newBreaker()
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.threshold, b.cooldown = 1, time.Second
	b.record(false) // trip
	if st, _, _, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("first caller after cooldown must win the probe slot")
	}
	for i := 0; i < 4; i++ {
		if b.allow() {
			t.Fatal("second caller admitted while a probe is in flight")
		}
	}
	b.record(true)
	if st, _, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", st)
	}
}

// TestDiskGetDoesNotClobberFresherPut pins the LRU stale-promotion fix: a
// Get that read version-1 bytes from disk must not overwrite the memory
// entry a concurrent Put stored for the same key in the meantime.
func TestDiskGetDoesNotClobberFresherPut(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	s.Put("cdg", "k", []byte("v1"))
	// Simulate the interleaving deterministically: the disk reader has
	// already fetched v1's blob and is about to promote it when the Put of
	// v2 lands.
	v1 := []byte("v1")
	s.Put("cdg", "k", []byte("v2"))
	s.memPromote(name("cdg", "k"), v1) // the late promotion must lose
	got, ok, err := s.Get("cdg", "k")
	if !ok || err != nil || string(got) != "v2" {
		t.Fatalf("Get after late promotion = %q, %v, %v; stale v1 clobbered fresher v2", got, ok, err)
	}
}

// TestConcurrentGetPutEvictStress hammers overlapping Get/Put/corrupt-Get
// traffic on a tiny LRU so eviction, promotion, and corruption cleanup all
// interleave — run under -race (ci.sh does) this is the satellite audit of
// the eviction/Get window.
func TestConcurrentGetPutEvictStress(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 2048) // tiny budget: constant eviction
	keys := []string{"a", "b", "c", "d", "e"}
	payload := func(k string, v int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%s%d", k, v)), 100)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(g+i)%len(keys)]
				switch i % 2 {
				case 0:
					s.Put("slice", k, payload(k, i))
				case 1:
					if data, ok, err := s.Get("slice", k); err != nil {
						t.Errorf("Get %s: %v", k, err)
						return
					} else if ok && len(data) == 0 {
						t.Errorf("Get %s returned empty data", k)
						return
					}
				}
			}
		}(g)
	}
	// Meanwhile, a goroutine repeatedly plants junk deps artifacts and reads
	// them back: every read trips the corrupt-eviction path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		junk := bytes.Repeat([]byte{0xFF}, 64)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.PutDeps("poison", &cdg.Deps{ByPC: map[uint32][]uint32{1: {2}}})
			s.Put(KindDeps, "poison", junk)
			s.GetDeps("poison")
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.MemBytes() < 0 {
		t.Fatalf("MemBytes went negative: %d", s.MemBytes())
	}
	if s.MemBytes() > 2048+1024 {
		t.Fatalf("MemBytes = %d, far over the 2048 budget", s.MemBytes())
	}
	// No temp files left behind by the concurrent writers.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:5] == ".tmp-" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
