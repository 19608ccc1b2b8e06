// Package store is the content-addressed artifact store behind the slicing
// service. It holds two kinds of artifact, each under a key the service
// derives from the job's trace address and the analysis version. A forward
// pass (control dependence graph) is keyed by the trace it derives from, so
// every backward pass over an identical trace skips it (the paper stores its
// forward pass "in stable storage" for exactly this reuse; see DESIGN.md). A
// finished job result is keyed by its trace and criteria (see KindResult),
// so a repeat job is a lookup instead of a recomputation.
//
// Blobs live in a byte-bounded in-memory LRU layer over optional disk
// persistence. A blob is its payload in a small envelope: a magic, a
// version byte, the payload bytes as given, and the trace format's CRC32
// integrity trailer. Both layers hold that same blob, so the LRU byte gauge
// measures exactly what an eviction frees and what a disk blob occupies:
// the payload plus 13 bytes. Nothing is compressed: a stored forward pass
// must be much cheaper to read back than to recompute, and deflating it
// cost about two thirds of a Put (DESIGN.md, "The store keeps what it is
// given"). Disk blobs are written atomically (temp file + rename), and a
// blob that fails its checks is reported and deleted rather than decoded
// into garbage.
//
// The store is a cache, and it degrades like one: a circuit breaker (see
// breaker.go) watches disk I/O errors and, once the disk is demonstrably
// erroring, sheds all disk traffic — reads become memory-layer lookups,
// writes become memory-only — until a half-open probe finds the disk
// healthy again. Callers never fail a computation because the cache
// under them is failing.
package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Blob envelope: magic, one version byte, the payload, then a trailer
// ("WSCK" + little-endian CRC32 of everything before it). Version 3 is the
// only version. Version 2 (a length and a deflated payload) and version 1
// are refused like any other unknown version, so a blob an older build left
// on disk reads as a corrupt miss and is recomputed.
var (
	blobMagic    = [4]byte{'W', 'S', 'A', 'B'}
	trailerMagic = [4]byte{'W', 'S', 'C', 'K'}
)

const (
	blobVersion = 3
	headerSize  = 5 // magic + version
	trailerSize = 8 // trailer magic + CRC32
)

// ErrCorrupt reports a blob whose checksum or framing failed verification.
// The damaged file is removed so the next Get is a clean miss.
var ErrCorrupt = errors.New("store: corrupt artifact")

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Hits         int64 // Gets served (memory or disk)
	Misses       int64 // Gets that found nothing
	MemHits      int64 // Gets served from the LRU layer
	DiskHits     int64 // Gets that had to read the disk layer
	Puts         int64 // artifacts written
	Evicted      int64 // entries pushed out of the LRU layer
	Corrupt      int64 // blobs that failed CRC or framing checks
	DiskErrors   int64 // disk operations that failed with an I/O error
	BreakerState int64 // disk breaker state (0 closed, 1 half-open, 2 open)
	BreakerTrips int64 // times the breaker opened
	BreakerShed  int64 // disk operations skipped while the breaker was open
}

// Store is a content-addressed artifact store with an in-memory LRU layer
// and optional disk persistence. All methods are safe for concurrent use.
type Store struct {
	dir    string // "" = memory only
	maxMem int64  // LRU byte budget
	fsys   FS     // disk operations (OSFS in production)
	br     *breaker

	mu       sync.Mutex
	mem      map[string]*list.Element // artifact name -> LRU element
	lru      *list.List               // front = most recently used
	memBytes int64

	hits, misses, memHits, diskHits, puts, evicted, corrupt atomic.Int64
}

// memEntry holds one sealed blob, the bytes a disk blob holds too; the LRU
// byte gauge sums len(data) over entries, so each counts its payload plus
// the 13-byte envelope.
type memEntry struct {
	name string
	data []byte
}

// DefaultMemBytes is the LRU budget used when Open is given maxMem <= 0.
const DefaultMemBytes = 64 << 20

// Open returns a store rooted at dir, creating it if needed. An empty dir
// yields a memory-only store (artifacts vanish when evicted). maxMem
// bounds the in-memory layer in bytes; <= 0 selects DefaultMemBytes.
func Open(dir string, maxMem int64) (*Store, error) {
	return OpenFS(dir, maxMem, OSFS{})
}

// OpenFS is Open over an explicit filesystem — the seam fault-injection
// tests use to exercise the disk breaker and corruption paths.
func OpenFS(dir string, maxMem int64, fsys FS) (*Store, error) {
	if maxMem <= 0 {
		maxMem = DefaultMemBytes
	}
	if fsys == nil {
		fsys = OSFS{}
	}
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{
		dir:    dir,
		fsys:   fsys,
		br:     newBreaker(),
		maxMem: maxMem, mem: make(map[string]*list.Element), lru: list.New(),
	}, nil
}

// name builds the artifact identity from a kind and a content key. Both
// must stay within [a-zA-Z0-9._-]; anything else is replaced so the name
// is always a safe single path component.
func name(kind, key string) string {
	return sanitize(kind) + "-" + sanitize(key)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name+".wsab") }

// Put stores an artifact under (kind, key), overwriting any previous
// version, in both the LRU layer and (if configured) on disk. The disk
// write is atomic: a temp file in the same directory renamed into place.
// Put cannot fail: a disk I/O failure degrades the artifact to memory-only
// and feeds the disk circuit breaker, which sheds further disk writes once
// the disk is demonstrably erroring.
func (s *Store) Put(kind, key string, data []byte) {
	n := name(kind, key)
	// Seal once — the same blob goes to disk and into the LRU, so the
	// memory layer holds exactly the at-rest bytes (and, since seal copies,
	// later caller mutations can't alias in).
	blob := seal(data)
	if s.dir != "" && s.br.allow() {
		s.br.record(s.diskWrite(n, blob) == nil)
	}
	s.memInsert(n, blob)
	s.puts.Add(1)
}

// diskWrite performs the atomic temp-file-and-rename protocol.
func (s *Store) diskWrite(n string, blob []byte) error {
	tmp, err := s.fsys.CreateTemp(s.dir, ".tmp-"+n+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = s.fsys.Rename(tmp.Name(), s.path(n))
	}
	if werr != nil {
		s.fsys.Remove(tmp.Name())
		return werr
	}
	return nil
}

// Get fetches the artifact stored under (kind, key). The second return is
// false on a miss. A corrupt disk blob, or one in an envelope version this
// build does not write, yields (nil, false, ErrCorrupt-wrapped error): the
// file is removed and counted in Stats.Corrupt, so the artifact is
// recomputed, never misread.
//
// The bytes returned are a read-only view of the stored blob, not a copy.
// The caller must not modify them: the memory layer keeps serving the same
// blob, and a blob written into fails its checksum on the next Get, which
// then drops it as corrupt.
func (s *Store) Get(kind, key string) ([]byte, bool, error) {
	n := name(kind, key)
	s.mu.Lock()
	if el, ok := s.mem[n]; ok {
		s.lru.MoveToFront(el)
		blob := el.Value.(*memEntry).data
		s.mu.Unlock()
		data, err := unseal(blob)
		if err != nil {
			// Only reachable if the process's own memory was scribbled on,
			// such as a caller writing into a view Get returned; treat it
			// like any other corrupt artifact.
			s.dropCorrupt(kind, key)
			return nil, false, fmt.Errorf("store: get %s: %w", n, err)
		}
		s.memHits.Add(1)
		s.hits.Add(1)
		return data, true, nil
	}
	s.mu.Unlock()
	if s.dir == "" || !s.br.allow() {
		s.misses.Add(1)
		return nil, false, nil
	}
	blob, err := s.fsys.ReadFile(s.path(n))
	if errors.Is(err, fs.ErrNotExist) {
		s.br.record(true) // the disk answered; the artifact just isn't there
		s.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		s.br.record(false)
		s.misses.Add(1)
		return nil, false, fmt.Errorf("store: get %s: %w", n, err)
	}
	s.br.record(true)
	data, err := unseal(blob)
	if err != nil {
		s.corrupt.Add(1)
		s.fsys.Remove(s.path(n))
		return nil, false, fmt.Errorf("store: get %s: %w", n, err)
	}
	// Promote the whole blob, envelope included: the memory layer always
	// accounts at-rest sizes.
	s.memPromote(n, blob)
	s.diskHits.Add(1)
	s.hits.Add(1)
	return data, true, nil
}

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	brState, brTrips, brShed, brErrs := s.br.snapshot()
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		MemHits:      s.memHits.Load(),
		DiskHits:     s.diskHits.Load(),
		Puts:         s.puts.Load(),
		Evicted:      s.evicted.Load(),
		Corrupt:      s.corrupt.Load(),
		DiskErrors:   brErrs,
		BreakerState: int64(brState),
		BreakerTrips: brTrips,
		BreakerShed:  brShed,
	}
}

// MemBytes returns the bytes currently held by the LRU layer: each entry's
// payload plus its 13-byte envelope, the size it has on disk too. That is
// the quantity the maxMem budget bounds and an eviction frees.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memBytes
}

func (s *Store) memInsert(n string, data []byte) {
	s.memStore(n, data, true)
}

// memStore is the shared LRU insertion; overwrite=false drops the write if
// the key already has an entry (the check and the insert happen under one
// lock acquisition — see memPromote for why that atomicity matters).
func (s *Store) memStore(n string, data []byte, overwrite bool) {
	s.mu.Lock()
	if el, ok := s.mem[n]; ok {
		if !overwrite {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			return
		}
		s.memBytes += int64(len(data)) - int64(len(el.Value.(*memEntry).data))
		el.Value.(*memEntry).data = data
		s.lru.MoveToFront(el)
	} else {
		s.mem[n] = s.lru.PushFront(&memEntry{name: n, data: data})
		s.memBytes += int64(len(data))
	}
	// Evict from the back until within budget; always keep the newest entry
	// so a single oversized artifact still caches.
	for s.memBytes > s.maxMem && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.mem, e.name)
		s.memBytes -= int64(len(e.data))
		s.evicted.Add(1)
	}
	s.mu.Unlock()
}

// memPromote inserts a blob read from disk into the LRU layer only if the
// key is still absent. A plain memInsert here would race with a concurrent
// Put: Put writes fresher bytes to disk and memory between this goroutine's
// disk read and its promotion, and overwriting them with what was just read
// would pin stale data in the memory layer (where every later Get finds it
// first). Losing the promotion is harmless — the next miss re-reads disk.
func (s *Store) memPromote(n string, data []byte) {
	s.memStore(n, data, false)
}

// dropCorrupt evicts an artifact whose payload failed decoding from both
// layers, so the next Get is a clean miss instead of re-serving poison. The
// memory eviction decrements the LRU byte gauge — leaving memBytes inflated
// here would permanently shrink the effective budget with every corrupt blob.
func (s *Store) dropCorrupt(kind, key string) {
	n := name(kind, key)
	s.mu.Lock()
	if el, ok := s.mem[n]; ok {
		e := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.mem, n)
		s.memBytes -= int64(len(e.data))
		s.evicted.Add(1)
	}
	s.mu.Unlock()
	s.corrupt.Add(1)
	if s.dir != "" {
		s.fsys.Remove(s.path(n))
	}
}

// seal wraps payload in the blob envelope: header, payload, CRC trailer.
// The blob is a new array, so it never aliases payload.
func seal(payload []byte) []byte {
	blob := make([]byte, 0, headerSize+len(payload)+trailerSize)
	blob = append(blob, blobMagic[:]...)
	blob = append(blob, blobVersion)
	blob = append(blob, payload...)
	crc := crc32.ChecksumIEEE(blob)
	blob = append(blob, trailerMagic[:]...)
	return binary.LittleEndian.AppendUint32(blob, crc)
}

// unseal verifies the envelope and returns the payload, a view of blob.
func unseal(blob []byte) ([]byte, error) {
	if len(blob) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(blob))
	}
	if [4]byte(blob[:4]) != blobMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ver := blob[4]
	if ver != blobVersion {
		return nil, fmt.Errorf("%w: unsupported blob version %d", ErrCorrupt, ver)
	}
	body, tr := blob[:len(blob)-trailerSize], blob[len(blob)-trailerSize:]
	if [4]byte(tr[:4]) != trailerMagic {
		return nil, fmt.Errorf("%w: checksum trailer missing", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(tr[4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file says %08x, contents hash to %08x)", ErrCorrupt, want, got)
	}
	return body[headerSize:], nil
}
