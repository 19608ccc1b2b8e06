// Deterministic codecs: the forward-pass artifact the store holds, and the
// canonical encoding of a slice result that slice digests hash. Both sort
// every map before writing so that encoding the same logical value always
// yields the same bytes — the property that makes content-addressed caching,
// slice digests and the determinism tests meaningful (gob, by contrast,
// walks maps in random order).
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"webslice/internal/cdg"
	"webslice/internal/slicer"
	"webslice/internal/trace"
)

// Artifact kinds: a trace's forward pass (its control dependence graph)
// and a job's finished service result. The service derives both keys from
// the job's trace address and encodes the result.
const (
	KindDeps   = "cdg"
	KindResult = "result"
)

// TraceKey returns the hex of trace.Digest, the SHA-256 of a trace's
// uncompressed v3 columns and footer. The error is always nil. Nothing in
// the service hashes a render: a site or seed job is addressed by its
// rendering identity (service.JobKey). It remains here for e2ebench's
// layer timer.
//
// Deprecated: address a trace by service.JobKey; to pin a render's
// contents, call trace.Trace.Digest.
func TraceKey(t *trace.Trace) (string, error) {
	sum := t.Digest()
	return hex.EncodeToString(sum[:]), nil
}

// TraceKeyV3 returns the content address of an uploaded trace: KeyBytes of
// the bytes the reader was opened on, which is also the key the cluster
// routes the upload by. No block is decoded. The error is always nil. The
// service hashes an upload once, in service.JobKey; only e2ebench's layer
// timer still calls this.
func TraceKeyV3(br *trace.BlockReader) (string, error) {
	return KeyBytes(br.Bytes()), nil
}

// KeyBytes returns the hex SHA-256 of raw bytes: the content address of an
// uploaded trace, the same value `sha256sum` prints for the file.
func KeyBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// SliceVariant fingerprints a slice computation: criteria name plus every
// option that changes the result. Two calls agree iff the slice bytes
// would agree. The service's result keys include it.
func SliceVariant(criteria string, opts slicer.Options) string {
	v := fmt.Sprintf("slice-%s-pp%d-mt%d", criteria, opts.ProgressPoints, opts.MainThread)
	if opts.NoControlDeps {
		v += "-nocdg"
	}
	return v
}

// --- cdg.Deps codec ---

// EncodeDeps serializes a control dependence graph: entry count, then per
// PC (ascending) the PC, its dependence count, and the sorted branch PCs.
func EncodeDeps(d *cdg.Deps) []byte {
	pcs := make([]uint32, 0, len(d.ByPC))
	for pc := range d.ByPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	out := binary.AppendUvarint(nil, uint64(len(pcs)))
	for _, pc := range pcs {
		deps := d.ByPC[pc]
		out = binary.AppendUvarint(out, uint64(pc))
		out = binary.AppendUvarint(out, uint64(len(deps)))
		for _, b := range deps {
			out = binary.AppendUvarint(out, uint64(b))
		}
	}
	return out
}

// byteReader walks an encoded artifact with bounds-checked varint reads.
type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("store: bad or truncated uvarint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("store: value %d overflows uint32 at offset %d", v, r.pos)
	}
	return uint32(v), nil
}

// count reads an element count, rejecting values that cannot fit in the
// remaining bytes at minBytes per element (mirrors the trace decoder).
func (r *byteReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes > 0 && v > uint64((len(r.buf)-r.pos)/minBytes) {
		return 0, fmt.Errorf("store: count %d impossible: %d bytes remain", v, len(r.buf)-r.pos)
	}
	return int(v), nil
}

// DecodeDeps reverses EncodeDeps.
func DecodeDeps(b []byte) (*cdg.Deps, error) {
	r := &byteReader{buf: b}
	n, err := r.count(2)
	if err != nil {
		return nil, err
	}
	d := &cdg.Deps{ByPC: make(map[uint32][]uint32, n)}
	for i := 0; i < n; i++ {
		pc, err := r.u32()
		if err != nil {
			return nil, err
		}
		nd, err := r.count(1)
		if err != nil {
			return nil, err
		}
		deps := make([]uint32, nd)
		for j := range deps {
			if deps[j], err = r.u32(); err != nil {
				return nil, err
			}
		}
		d.ByPC[pc] = deps
	}
	return d, nil
}

// --- slicer.Result codec ---

// EncodeResult serializes a slice result with every statistic the service
// reports: the bitset, per-thread and per-function counts (sorted by key),
// the progress curve, and the pending-branch residue. Nothing decodes it:
// it is the canonical form slice digests and byte-identity checks compare.
func EncodeResult(r *slicer.Result) []byte {
	out := binary.AppendUvarint(nil, uint64(len(r.Criteria)))
	out = append(out, r.Criteria...)
	out = binary.AppendUvarint(out, uint64(r.Total))
	out = binary.AppendUvarint(out, uint64(r.SliceCount))
	out = binary.AppendUvarint(out, uint64(r.PendingLeft))

	out = binary.AppendUvarint(out, uint64(len(r.InSlice)))
	for _, w := range r.InSlice {
		out = binary.LittleEndian.AppendUint64(out, w)
	}

	out = appendThreadMap(out, r.ByThread)
	out = appendThreadMap(out, r.SliceByThread)
	out = appendFuncMap(out, r.ByFunc)
	out = appendFuncMap(out, r.SliceByFunc)

	out = binary.AppendUvarint(out, uint64(len(r.Progress)))
	for _, p := range r.Progress {
		out = binary.AppendUvarint(out, uint64(p.Processed))
		out = binary.AppendUvarint(out, uint64(p.Sliced))
		out = binary.AppendUvarint(out, uint64(p.MainProcessed))
		out = binary.AppendUvarint(out, uint64(p.MainSliced))
	}
	return out
}

// SliceDigest is the content digest of a slice: the hex SHA-256 of its
// EncodeResult with the progress samples stripped, so it depends only on
// what is in the slice, not on the ProgressPoints sampling option. The
// service reports it as Result.SliceDigest, and `webslice verify -exp
// golden`, which slices with sampling off, pins it in
// examples/golden/corpus.json.
func SliceDigest(r *slicer.Result) string {
	c := *r
	c.Progress = nil
	sum := sha256.Sum256(EncodeResult(&c))
	return hex.EncodeToString(sum[:])
}

func appendThreadMap(out []byte, m map[uint8]int) []byte {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = binary.AppendUvarint(out, uint64(k))
		out = binary.AppendUvarint(out, uint64(m[uint8(k)]))
	}
	return out
}

func appendFuncMap(out []byte, m map[trace.FuncID]int) []byte {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, uint32(k))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = binary.AppendUvarint(out, uint64(k))
		out = binary.AppendUvarint(out, uint64(m[trace.FuncID(k)]))
	}
	return out
}

// --- typed store helpers ---

// PutDeps stores a control dependence graph under the trace key.
func (s *Store) PutDeps(traceKey string, d *cdg.Deps) {
	s.Put(KindDeps, traceKey, EncodeDeps(d))
}

// GetDeps fetches the control dependence graph cached for a trace.
func (s *Store) GetDeps(traceKey string) (*cdg.Deps, bool, error) {
	b, ok, err := s.Get(KindDeps, traceKey)
	if !ok || err != nil {
		return nil, false, err
	}
	d, err := DecodeDeps(b)
	if err != nil {
		// The envelope checksum passed but the payload doesn't decode: evict
		// it (both layers) so the caller recomputes instead of failing again.
		s.dropCorrupt(KindDeps, traceKey)
		return nil, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return d, true, nil
}
