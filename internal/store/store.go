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
// persistence. Blobs are compressed at rest: the envelope deflates the
// payload on Put and both layers hold the sealed (compressed) bytes, so
// the LRU byte gauge measures exactly what an eviction frees and what a
// disk blob occupies. Gets inflate on the way out — artifacts are read
// once per analysis, so the cache trades a little decode CPU for holding
// 2x+ more artifacts in the same budget. Disk blobs carry the trace
// format's CRC32 integrity trailer, are written atomically (temp file +
// rename), and a corrupt blob is reported and deleted rather than decoded
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
	"bytes"
	"compress/flate"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Blob envelope: magic, one version byte, body, then a trailer ("WSCK" +
// little-endian CRC32 of everything before it). The body is
// uvarint(logical length) followed by the deflate stream of the payload.
// Version 2 is the only version; the uncompressed version 1 is refused like
// any other unknown version.
var (
	blobMagic    = [4]byte{'W', 'S', 'A', 'B'}
	trailerMagic = [4]byte{'W', 'S', 'C', 'K'}
)

const (
	blobVersion = 2 // compressed body
	headerSize  = 5 // magic + version
	trailerSize = 8 // trailer magic + CRC32

	// maxLogicalBytes caps the declared decompressed size of a blob, so a
	// damaged or hostile length field can't become an allocation bomb.
	maxLogicalBytes = 1 << 30
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

// memEntry holds one sealed (compressed) blob; the LRU byte gauge sums
// len(data) over entries, i.e. at-rest sizes, never logical sizes.
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
	// Seal once — the same compressed blob goes to disk and into the LRU,
	// so the memory layer holds exactly the at-rest bytes (and, since seal
	// copies, later caller mutations can't alias in).
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
// false on a miss. A corrupt disk blob yields (nil, false, ErrCorrupt-
// wrapped error) and the damaged file is removed.
func (s *Store) Get(kind, key string) ([]byte, bool, error) {
	n := name(kind, key)
	s.mu.Lock()
	if el, ok := s.mem[n]; ok {
		s.lru.MoveToFront(el)
		blob := el.Value.(*memEntry).data
		s.mu.Unlock()
		data, err := unseal(blob)
		if err != nil {
			// Only reachable if the process's own memory was scribbled on;
			// treat it like any other corrupt artifact.
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
	// Promote the sealed bytes, not the inflated payload — the memory layer
	// always accounts at-rest sizes.
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

// MemBytes returns the bytes currently held by the LRU layer. Entries are
// stored sealed, so this is compressed (at-rest) size — the same quantity
// the maxMem budget bounds and an eviction frees — not the logical payload
// size callers see from Get.
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

// sealer is seal's pooled compressor: flate.NewWriter allocates 806,784
// bytes (go1.24), and an upload miss seals two blobs. The writer writes
// through out, which seal sets for one call and clears after it, so a
// sealer waiting in the pool holds no blob.
type sealer struct {
	zw  *flate.Writer
	out *bytes.Buffer
}

func (s *sealer) Write(p []byte) (int, error) { return s.out.Write(p) }

var sealers = sync.Pool{New: func() any {
	s := new(sealer)
	s.zw, _ = flate.NewWriter(s, flate.DefaultCompression)
	return s
}}

// seal wraps payload in the blob envelope: header, logical length,
// deflated payload, CRC trailer.
func seal(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(headerSize + binary.MaxVarintLen64 + len(payload)/2 + trailerSize)
	buf.Write(blobMagic[:])
	buf.WriteByte(blobVersion)
	var lenBuf [binary.MaxVarintLen64]byte
	buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(payload)))])
	// Reset makes a pooled writer emit exactly what a new one would.
	s := sealers.Get().(*sealer)
	s.out = &buf
	s.zw.Reset(s)
	s.zw.Write(payload) // Buffer writes cannot fail
	s.zw.Close()
	s.out = nil
	sealers.Put(s)
	crc := crc32.ChecksumIEEE(buf.Bytes())
	out := append(buf.Bytes(), trailerMagic[:]...)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// unseal verifies the envelope and returns the (inflated) payload.
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
	rest := body[headerSize:]
	logical, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated logical length", ErrCorrupt)
	}
	if logical > maxLogicalBytes {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds the %d cap", ErrCorrupt, logical, int64(maxLogicalBytes))
	}
	u := unsealers.Get().(*unsealer)
	defer u.release()
	u.src.Reset(rest[k:])
	if err := u.zr.(flate.Resetter).Reset(&u.src, nil); err != nil {
		return nil, fmt.Errorf("%w: payload inflate: %v", ErrCorrupt, err)
	}
	out := make([]byte, logical)
	if _, err := io.ReadFull(u.zr, out); err != nil {
		return nil, fmt.Errorf("%w: payload inflate: %v", ErrCorrupt, err)
	}
	var extra [1]byte
	if n, _ := u.zr.Read(extra[:]); n != 0 {
		return nil, fmt.Errorf("%w: payload longer than its declared %d bytes", ErrCorrupt, logical)
	}
	return out, nil
}

// unsealer is unseal's pooled decompressor, reading the blob through src.
type unsealer struct {
	src bytes.Reader
	zr  io.ReadCloser
}

var unsealers = sync.Pool{New: func() any {
	u := new(unsealer)
	u.zr = flate.NewReader(&u.src)
	return u
}}

// release returns u to the pool without its reference to the blob.
func (u *unsealer) release() {
	u.src.Reset(nil)
	unsealers.Put(u)
}
