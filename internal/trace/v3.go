package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"webslice/internal/isa"
	"webslice/internal/vmem"
)

// Trace format version 3: a block-based, column-oriented encoding. The
// record stream is split into fixed-size blocks that compress and decode
// independently, so a writer need not buffer more than one block, and a
// reader can check the index and footer, and the record count they
// declare, without inflating a block.
//
// Layout:
//
//	header    "WSLT" ver=3 blockRecs crc32(header)
//	block*    tag=0x01 uvarint(len) <flate(columns)> crc32(payload)
//	footer    tag=0x02 uvarint(len) <symbol/thread/sys/mark/clock tables> crc32(payload)
//	index     uvarint(footerOff) uvarint(nBlocks) (offΔ count)* crc32(index)
//	tail      u64le(indexOff) crc32(those 8 bytes) "WS3K"
//
// Each block body holds exactly blockRecs records (the final block may hold
// fewer) transposed into columns: kinds and thread IDs run-length encoded,
// PCs and addresses as per-thread zigzag deltas (state resets at each block
// boundary so blocks stay independently decodable), registers/aux as raw
// uvarints, sizes run-length encoded. The concatenated columns are then
// DEFLATE-compressed. Every section carries its own CRC32, and the fixed
// 16-byte tail lets a reader locate the index — and from it every block —
// without scanning the file.
//
// The symbol and side tables live in the *footer* rather than the header, so
// a writer can emit each block before the tables are complete: they are only
// complete once the last record has been observed.
//
// Content addresses never re-encode a trace: an uploaded trace is addressed
// by the SHA-256 of its bytes, and a trace rendered in memory is pinned in
// the golden corpus by Digest, the SHA-256 of its uncompressed columns and
// footer.

const (
	v3Version = 3
	// DefaultBlockRecs is the records-per-block used by Trace.WriteV3.
	DefaultBlockRecs = 4096
	// maxBlockRecs bounds attacker-controlled block sizes at open time.
	maxBlockRecs = 1 << 20

	v3TagBlock  = 0x01
	v3TagFooter = 0x02
	v3TailSize  = 16 // u64 index offset + crc32 + "WS3K"
)

var v3TailMagic = [4]byte{'W', 'S', '3', 'K'}

// WriteV3 serializes the trace in block-compressed format v3 with the
// default block size.
func (t *Trace) WriteV3(w io.Writer) error { return t.WriteV3Blocks(w, DefaultBlockRecs) }

// WriteV3Blocks serializes the trace in format v3 with an explicit
// records-per-block: blockRecs ≤ 0 selects DefaultBlockRecs, and other
// values are rounded up to a multiple of 64, at most maxBlockRecs. Each
// block is encoded straight from its span of t.Recs.
func (t *Trace) WriteV3Blocks(w io.Writer, blockRecs int) error {
	if blockRecs <= 0 {
		blockRecs = DefaultBlockRecs
	}
	blockRecs = min((blockRecs+63)&^63, maxBlockRecs)
	// A bufio.Writer keeps its first error and Flush returns it, so no write
	// below is checked. off counts the bytes written: the block offsets in
	// the index and the index offset in the tail.
	bw := bufio.NewWriterSize(w, 1<<20)
	off := 0
	// section writes body followed by its CRC32, and before it, unless tag
	// is 0, the tag and the body's length.
	section := func(tag byte, body []byte) {
		if tag != 0 {
			var pre [1 + binary.MaxVarintLen64]byte
			pre[0] = tag
			n := 1 + binary.PutUvarint(pre[1:], uint64(len(body)))
			bw.Write(pre[:n])
			off += n
		}
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
		bw.Write(body)
		bw.Write(sum[:])
		off += len(body) + len(sum)
	}
	hdr := binary.AppendUvarint(append([]byte(nil), magic[:]...), v3Version)
	section(0, binary.AppendUvarint(hdr, uint64(blockRecs)))

	var cols []byte
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.DefaultCompression)
	var entries []byte // the index's (offset delta, record count) pairs
	prev, blocks := 0, 0
	for lo := 0; lo < len(t.Recs); lo += blockRecs {
		recs := t.Recs[lo:min(lo+blockRecs, len(t.Recs))]
		cols = appendColumns(cols[:0], recs)
		comp.Reset()
		fw.Reset(&comp)
		fw.Write(cols) // deflating into a bytes.Buffer cannot fail
		fw.Close()
		entries = binary.AppendUvarint(entries, uint64(off-prev))
		entries = binary.AppendUvarint(entries, uint64(len(recs)))
		prev = off
		blocks++
		section(v3TagBlock, comp.Bytes())
	}

	footOff := off
	section(v3TagFooter, appendFooter(cols[:0], t.Funcs, t.Threads, t.Sys, t.Marks, t.Clock))
	indexOff := off
	idx := binary.AppendUvarint(nil, uint64(footOff))
	idx = binary.AppendUvarint(idx, uint64(blocks))
	section(0, append(idx, entries...))
	var tail [v3TailSize]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(indexOff))
	binary.LittleEndian.PutUint32(tail[8:12], crc32.ChecksumIEEE(tail[:8]))
	copy(tail[12:], v3TailMagic[:])
	bw.Write(tail[:])
	return bw.Flush()
}

// Digest returns the SHA-256 of the trace's uncompressed v3 content: the
// record count, the column stream of every DefaultBlockRecs-record block,
// then the footer tables. The golden corpus pins it for every rendered
// trace, and it costs a fraction of an encode because nothing is
// compressed. Digest depends only on the trace's contents, so a decoded
// trace digests like the one that was encoded.
func (t *Trace) Digest() [sha256.Size]byte {
	h := sha256.New()
	buf := binary.AppendUvarint(nil, uint64(len(t.Recs)))
	h.Write(buf)
	for lo := 0; lo < len(t.Recs); lo += DefaultBlockRecs {
		buf = appendColumns(buf[:0], t.Recs[lo:min(lo+DefaultBlockRecs, len(t.Recs))])
		h.Write(buf)
	}
	h.Write(appendFooter(buf[:0], t.Funcs, t.Threads, t.Sys, t.Marks, t.Clock))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// maxColumnBytes is the most appendColumns emits for a block of n records:
// 3 bytes for the count (n ≤ maxBlockRecs), then per record at worst a
// 2-byte kind run, a 2-byte thread run, six 5-byte varints (PC, Dst, Src1,
// Src2, Addr, Aux) and a 4-byte size run. Longer runs only take fewer
// bytes per record. DecodeBlock caps a block's inflated payload here.
func maxColumnBytes(n int) int { return 3 + 38*n }

// appendColumns transposes one block of records into the v3 column layout.
func appendColumns(b []byte, recs []Rec) []byte {
	n := len(recs)
	b = binary.AppendUvarint(b, uint64(n))
	// Kinds, run-length encoded: pages of same-kind records are long.
	for i := 0; i < n; {
		j := i + 1
		for j < n && recs[j].Kind == recs[i].Kind {
			j++
		}
		b = append(b, byte(recs[i].Kind))
		b = binary.AppendUvarint(b, uint64(j-i))
		i = j
	}
	// Thread IDs, run-length encoded: scheduling quanta are long.
	for i := 0; i < n; {
		j := i + 1
		for j < n && recs[j].TID == recs[i].TID {
			j++
		}
		b = append(b, recs[i].TID)
		b = binary.AppendUvarint(b, uint64(j-i))
		i = j
	}
	// PCs: per-thread deltas (consecutive sites are usually adjacent). State
	// resets every block so blocks decode independently.
	var lastPC [256]uint32
	for i := range recs {
		r := &recs[i]
		b = binary.AppendVarint(b, int64(r.PC)-int64(lastPC[r.TID]))
		lastPC[r.TID] = r.PC
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(recs[i].Dst))
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(recs[i].Src1))
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(recs[i].Src2))
	}
	// Addresses: per-thread deltas (sequential access patterns dominate).
	var lastAddr [256]uint32
	for i := range recs {
		r := &recs[i]
		b = binary.AppendVarint(b, int64(r.Addr)-int64(lastAddr[r.TID]))
		lastAddr[r.TID] = uint32(r.Addr)
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(recs[i].Aux))
	}
	// Sizes, run-length encoded: most records share a handful of sizes.
	for i := 0; i < n; {
		j := i + 1
		for j < n && recs[j].Size == recs[i].Size {
			j++
		}
		b = binary.AppendUvarint(b, uint64(recs[i].Size))
		b = binary.AppendUvarint(b, uint64(j-i))
		i = j
	}
	return b
}

// appendFooter encodes the symbol/thread/syscall/marker/clock tables.
func appendFooter(b []byte, funcs []FuncInfo, threads []ThreadInfo, sys map[int]*SysEffect, marks map[int]*Mark, clock []ClockPoint) []byte {
	b = binary.AppendUvarint(b, uint64(len(funcs)))
	for _, f := range funcs {
		b = appendString(b, f.Name)
		b = appendString(b, f.Namespace)
	}
	b = binary.AppendUvarint(b, uint64(len(threads)))
	for _, th := range threads {
		b = binary.AppendUvarint(b, uint64(th.ID))
		b = appendString(b, th.Name)
	}
	b = binary.AppendUvarint(b, uint64(len(sys)))
	for _, i := range sortedKeys(sys) {
		e := sys[i]
		b = binary.AppendUvarint(b, uint64(i))
		b = binary.AppendUvarint(b, uint64(e.Num))
		b = appendRanges(b, e.Reads)
		b = appendRanges(b, e.Writes)
	}
	b = binary.AppendUvarint(b, uint64(len(marks)))
	for _, i := range sortedKeys(marks) {
		m := marks[i]
		b = binary.AppendUvarint(b, uint64(i))
		b = binary.AppendUvarint(b, uint64(m.ID))
		b = append(b, byte(m.Kind))
		b = binary.AppendUvarint(b, uint64(m.Buf.Addr))
		b = binary.AppendUvarint(b, uint64(m.Buf.Size))
	}
	b = binary.AppendUvarint(b, uint64(len(clock)))
	for _, cp := range clock {
		b = binary.AppendUvarint(b, uint64(cp.Index))
		b = binary.AppendUvarint(b, cp.Cycle)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendRanges(b []byte, rs []vmem.Range) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = binary.AppendUvarint(b, uint64(r.Addr))
		b = binary.AppendUvarint(b, uint64(r.Size))
	}
	return b
}

// BlockReader is an opened v3 trace. OpenV3 verifies the header, index, and
// footer checksums and the structural accounting of every byte in the file
// without inflating a block, so NumRecs is known before any record memory
// is spent; ReadAll then verifies and decodes the blocks.
type BlockReader struct {
	data      []byte // the encoded trace the reader was opened on
	n         int
	blockRecs int    // records in every block but the last
	tables    *Trace // the footer's symbol and side tables, Recs nil
	blocks    []v3BlockMeta
}

type v3BlockMeta struct {
	body  []byte // compressed column payload
	crc   uint32
	count int
}

// OpenV3 parses a v3 trace held in memory (typically an mmap or a store
// blob) and returns a reader over its blocks.
func OpenV3(data []byte) (*BlockReader, error) {
	d := &decoder{buf: data, section: "v3 header"}
	if len(data) < len(magic)+2+4+v3TailSize {
		return nil, d.errf("input shorter than the minimal v3 frame")
	}
	if [4]byte(data[:4]) != magic {
		return nil, d.errf("bad magic (not a WSLT trace)")
	}
	d.pos = 4
	ver, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != v3Version {
		return nil, d.errf("format version %d, want %d", ver, v3Version)
	}
	blockRecs64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	hdrEnd := d.pos
	if d.remaining() < 4 {
		return nil, d.errf("truncated header checksum")
	}
	if got, want := crc32.ChecksumIEEE(data[:hdrEnd]), binary.LittleEndian.Uint32(data[hdrEnd:]); got != want {
		return nil, d.errf("header checksum mismatch: file says %08x, contents hash to %08x", want, got)
	}
	if blockRecs64 < 64 || blockRecs64 > maxBlockRecs || blockRecs64%64 != 0 {
		return nil, d.errf("bad block size %d (want a multiple of 64 in [64,%d])", blockRecs64, maxBlockRecs)
	}
	blockRecs := int(blockRecs64)
	blocksStart := hdrEnd + 4

	// Tail: fixed 16 bytes locating the index.
	d.section = "v3 tail"
	tailStart := len(data) - v3TailSize
	d.pos = tailStart
	if [4]byte(data[tailStart+12:]) != v3TailMagic {
		return nil, d.errf("tail magic missing (truncated or overwritten file)")
	}
	if got, want := crc32.ChecksumIEEE(data[tailStart:tailStart+8]), binary.LittleEndian.Uint32(data[tailStart+8:]); got != want {
		return nil, d.errf("tail checksum mismatch: file says %08x, contents hash to %08x", want, got)
	}
	indexOff64 := binary.LittleEndian.Uint64(data[tailStart:])
	if indexOff64 < uint64(blocksStart) || indexOff64 > uint64(tailStart-4) {
		return nil, d.errf("index offset %d outside the file body", indexOff64)
	}
	indexOff := int(indexOff64)

	// Index: footer offset plus per-block (offset, record count).
	d.section = "v3 index"
	d.pos = indexOff
	idxBody := data[indexOff : tailStart-4]
	if got, want := crc32.ChecksumIEEE(idxBody), binary.LittleEndian.Uint32(data[tailStart-4:]); got != want {
		return nil, d.errf("index checksum mismatch: file says %08x, contents hash to %08x", want, got)
	}
	d.buf = data[:tailStart-4]
	footOff64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if footOff64 < uint64(blocksStart) || footOff64 > uint64(indexOff) {
		return nil, d.errf("footer offset %d outside [%d,%d]", footOff64, blocksStart, indexOff)
	}
	footOff := int(footOff64)
	nBlocks, err := d.count(2)
	if err != nil {
		return nil, err
	}
	br := &BlockReader{data: data, blockRecs: blockRecs, blocks: make([]v3BlockMeta, nBlocks)}
	prevOff := int64(0)
	for i := range br.blocks {
		delta, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// Guard in uint64 before forming off: a hostile delta must not wrap
		// the offset past the footer (or negative).
		if delta >= uint64(int64(footOff)-prevOff) {
			return nil, d.errf("block %d offset overlaps the footer at %d", i, footOff)
		}
		off := prevOff + int64(delta)
		if i == 0 && off != int64(blocksStart) {
			return nil, d.errf("first block at offset %d, want %d", off, blocksStart)
		}
		if i > 0 && delta == 0 {
			return nil, d.errf("block %d offset does not advance", i)
		}
		cnt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if cnt == 0 || cnt > uint64(blockRecs) {
			return nil, d.errf("block %d record count %d outside (0,%d]", i, cnt, blockRecs)
		}
		if i < nBlocks-1 && cnt != uint64(blockRecs) {
			return nil, d.errf("non-final block %d holds %d records, want %d", i, cnt, blockRecs)
		}
		br.blocks[i] = v3BlockMeta{count: int(cnt)}
		br.n += int(cnt)
		prevOff = off
		// Stash the offset in body temporarily; resolved below once the
		// block framing is parsed.
		br.blocks[i].body = data[off:]
	}
	if d.pos != tailStart-4 {
		return nil, d.errf("%d trailing bytes after the block index", tailStart-4-d.pos)
	}
	if nBlocks == 0 && footOff != blocksStart {
		return nil, d.errf("empty trace but footer at %d, want %d", footOff, blocksStart)
	}

	// Block framing: every byte between the header and the footer must be
	// accounted for by exactly the indexed blocks.
	d.buf = data
	d.section = "v3 block"
	next := blocksStart
	for i := range br.blocks {
		off := len(data) - len(br.blocks[i].body)
		if off != next {
			return nil, d.errf("block %d at offset %d, want %d (gap or overlap)", i, off, next)
		}
		d.pos = off
		tag, err := d.byte()
		if err != nil {
			return nil, err
		}
		if tag != v3TagBlock {
			return nil, d.errf("block %d has tag %#x, want %#x", i, tag, v3TagBlock)
		}
		bodyLen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// room is negative when the length field ends less than a
		// checksum's width before the footer: check its sign before the
		// uint64 conversion, which would wrap it past any length.
		if room := footOff - d.pos - 4; room < 0 || bodyLen > uint64(room) {
			return nil, d.errf("block %d payload length %d exceeds the %d bytes before the footer", i, bodyLen, room)
		}
		body := data[d.pos : d.pos+int(bodyLen)]
		d.pos += int(bodyLen)
		crc := binary.LittleEndian.Uint32(data[d.pos:])
		d.pos += 4
		br.blocks[i].body = body
		br.blocks[i].crc = crc
		next = d.pos
	}
	if next != footOff {
		return nil, d.errf("%d unaccounted bytes between the last block and the footer", footOff-next)
	}

	// Footer: symbol and side tables.
	d.section = "v3 footer"
	d.pos = footOff
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	if tag != v3TagFooter {
		return nil, d.errf("footer tag %#x, want %#x", tag, v3TagFooter)
	}
	footLen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if room := indexOff - d.pos - 4; room < 0 || footLen > uint64(room) {
		return nil, d.errf("footer length %d exceeds the %d bytes before the index", footLen, room)
	}
	foot := data[d.pos : d.pos+int(footLen)]
	if d.pos+int(footLen)+4 != indexOff {
		return nil, d.errf("%d unaccounted bytes between the footer and the index", indexOff-(d.pos+int(footLen)+4))
	}
	if got, want := crc32.ChecksumIEEE(foot), binary.LittleEndian.Uint32(data[d.pos+int(footLen):]); got != want {
		return nil, d.errf("footer checksum mismatch: file says %08x, contents hash to %08x", want, got)
	}
	fd := &decoder{buf: foot, section: "v3 footer"}
	tables := New()
	if err := decodeTables(fd, tables); err != nil {
		return nil, err
	}
	if err := decodeSideTables(fd, tables, br.n); err != nil {
		return nil, err
	}
	if fd.remaining() != 0 {
		fd.section = "v3 footer"
		return nil, fd.errf("%d trailing bytes after the last footer table", fd.remaining())
	}
	br.tables = tables
	return br, nil
}

// Bytes returns the encoded trace the reader was opened on. It is shared
// with the reader and must not be mutated.
func (br *BlockReader) Bytes() []byte { return br.data }

// NumRecs returns the total record count the index declares.
func (br *BlockReader) NumRecs() int { return br.n }

// inflater is a flate reader plus scratch output buffer, reused across the
// blocks one ReadAll worker decodes so each block does not allocate a
// decompressor.
type inflater struct {
	fr  io.ReadCloser
	src bytes.Reader
	buf []byte
}

func newInflater() *inflater { return &inflater{fr: flate.NewReader(bytes.NewReader(nil))} }

// inflaters recycles ReadAll's inflaters across decodes: a flate reader
// alone allocates about 40 KB, and its scratch buffer grows to a block's
// inflated size.
var inflaters = sync.Pool{New: func() any { return newInflater() }}

func getInflater() *inflater { return inflaters.Get().(*inflater) }

// putInflater returns in to the pool. It first drops in's reference to the
// compressed input, so a pooled inflater keeps no trace alive.
func putInflater(in *inflater) {
	in.src.Reset(nil)
	inflaters.Put(in)
}

// inflate decompresses comp, which may inflate to at most limit bytes. The
// scratch buffer never grows past limit, and a stream that goes on beyond
// it fails, so a few compressed bytes cannot make the reader allocate more
// than the block's record count can legally need.
func (in *inflater) inflate(comp []byte, limit int) ([]byte, error) {
	in.src.Reset(comp)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, err
	}
	out := in.buf[:0]
	for {
		end := min(cap(out), limit)
		if len(out) == end && end < limit {
			grown := make([]byte, len(out), min(max(2*cap(out), 4096), limit))
			copy(grown, out)
			out, end = grown, cap(grown)
		}
		var n int
		var err error
		if len(out) < end {
			n, err = in.fr.Read(out[len(out):end])
			out = out[:len(out)+n]
		} else {
			// At the limit: the stream must end without another byte.
			var probe [1]byte
			if n, err = in.fr.Read(probe[:]); n > 0 {
				err = errors.New("inflates past " + itoa(limit) + " bytes, the most its record count encodes to")
			}
		}
		if err == io.EOF {
			in.buf = out
			return out, nil
		}
		if err != nil {
			in.buf = out
			return nil, err
		}
	}
}

// decodeBlock verifies and decompresses block i into dst, reusing dst's
// backing array when it has capacity. The returned slice holds exactly the
// block's records. A payload that inflates past maxColumnBytes of the
// record count the index declares fails with a DecodeError.
func (br *BlockReader) decodeBlock(i int, in *inflater, dst []Rec) ([]Rec, error) {
	m := &br.blocks[i]
	d := &decoder{buf: m.body, section: "v3 block payload"}
	if got := crc32.ChecksumIEEE(m.body); got != m.crc {
		return nil, d.errf("block %d checksum mismatch: file says %08x, contents hash to %08x", i, m.crc, got)
	}
	raw, err := in.inflate(m.body, maxColumnBytes(m.count))
	if err != nil {
		return nil, &DecodeError{Section: "v3 block payload", Offset: 0, Msg: "block " + itoa(i) + ": " + err.Error()}
	}
	return decodeColumns(raw, m.count, dst)
}

// decodeColumns parses one block's decompressed column payload into records.
func decodeColumns(raw []byte, want int, dst []Rec) ([]Rec, error) {
	d := &decoder{buf: raw, section: "v3 block columns"}
	n64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n64 != uint64(want) {
		return nil, d.errf("block holds %d records, index says %d", n64, want)
	}
	n := int(n64)
	if cap(dst) < n {
		dst = make([]Rec, n)
	} else {
		dst = dst[:n]
	}
	// Kinds (RLE).
	for i := 0; i < n; {
		kb, err := d.byte()
		if err != nil {
			return nil, err
		}
		run, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if run == 0 || run > uint64(n-i) {
			return nil, d.errf("kind run of %d at record %d overruns the block", run, i)
		}
		for j := 0; j < int(run); j++ {
			dst[i+j].Kind = isa.Kind(kb)
		}
		i += int(run)
	}
	// Thread IDs (RLE).
	for i := 0; i < n; {
		tid, err := d.byte()
		if err != nil {
			return nil, err
		}
		run, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if run == 0 || run > uint64(n-i) {
			return nil, d.errf("thread run of %d at record %d overruns the block", run, i)
		}
		for j := 0; j < int(run); j++ {
			dst[i+j].TID = tid
		}
		i += int(run)
	}
	// PCs (per-thread delta).
	var lastPC [256]uint32
	for i := 0; i < n; i++ {
		delta, err := d.varint()
		if err != nil {
			return nil, err
		}
		r := &dst[i]
		r.PC = uint32(int64(lastPC[r.TID]) + delta)
		lastPC[r.TID] = r.PC
	}
	// Registers and aux.
	for i := 0; i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dst[i].Dst = isa.Reg(uint32(v))
	}
	for i := 0; i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dst[i].Src1 = isa.Reg(uint32(v))
	}
	for i := 0; i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dst[i].Src2 = isa.Reg(uint32(v))
	}
	// Addresses (per-thread delta).
	var lastAddr [256]uint32
	for i := 0; i < n; i++ {
		delta, err := d.varint()
		if err != nil {
			return nil, err
		}
		r := &dst[i]
		a := uint32(int64(lastAddr[r.TID]) + delta)
		r.Addr = vmem.Addr(a)
		lastAddr[r.TID] = a
	}
	for i := 0; i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dst[i].Aux = uint32(v)
	}
	// Sizes (RLE).
	for i := 0; i < n; {
		sz, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if sz > 0xFFFF {
			return nil, d.errf("record %d access size %d overflows", i, sz)
		}
		run, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if run == 0 || run > uint64(n-i) {
			return nil, d.errf("size run of %d at record %d overruns the block", run, i)
		}
		for j := 0; j < int(run); j++ {
			dst[i+j].Size = uint16(sz)
		}
		i += int(run)
	}
	if d.remaining() != 0 {
		return nil, d.errf("%d trailing bytes after the size column", d.remaining())
	}
	return dst, nil
}

// workerInputBytes is how much input each ReadAll worker past the first
// needs. A worker's inflater allocates about 40 KB whatever the block
// size, so one worker per 4 KiB keeps the extra inflaters near 10 bytes
// per input byte at any GOMAXPROCS, and a small trace decodes on the
// calling goroutine alone.
const workerInputBytes = 4 << 10

// decodeWorkers is how many goroutines share the decode of blocks blocks
// of an inputBytes-byte trace: one per GOMAXPROCS, but at most one per
// block and one more per workerInputBytes of input.
func decodeWorkers(blocks, inputBytes int) int {
	return max(1, min(runtime.GOMAXPROCS(0), blocks, 1+inputBytes/workerInputBytes))
}

// ReadAll decodes the whole trace, verifying each block's checksum, into a
// new record array. It is ReadAllInto(nil).
func (br *BlockReader) ReadAll() (*Trace, error) { return br.ReadAllInto(nil) }

// ReadAllInto decodes the whole trace, verifying each block's checksum. The
// side tables are shared with the reader. The records go into recs' backing
// array when its capacity covers the reservation below, whatever it holds,
// so a caller that decodes trace after trace can recycle one array; the
// returned Recs then alias recs. Otherwise they go into a new array.
//
// The record slice is reserved from the index, but to at most one record
// per input byte: real traces take several bytes per record and still fit
// exactly, while an index that declares millions of records in a few bytes
// gets memory only for the blocks that actually decode. A recycled array is
// cut to that same reservation, so it decodes exactly as a new one would.
//
// The blocks that fit in that reservation decode in parallel, each straight
// into its final place: blocks are independent, and every block but the
// last holds exactly blockRecs records, so block i starts at record
// i*blockRecs and nothing needs stitching. Decoding is the largest stage
// of an upload that misses the result cache, and this is the one place a
// job's work is split across cores. Blocks past the reservation, which
// exist only when the index declares more records than the input has
// bytes, then decode in order by appending. Neither the records nor, on
// corrupt input, the error (that of the lowest failing block) depend on
// the number of workers.
func (br *BlockReader) ReadAllInto(recs []Rec) (*Trace, error) {
	t := &Trace{
		Funcs:   br.tables.Funcs,
		Threads: br.tables.Threads,
		Sys:     br.tables.Sys,
		Marks:   br.tables.Marks,
		Clock:   br.tables.Clock,
	}
	if br.n > 0 {
		if reserve := min(br.n, len(br.data)); cap(recs) >= reserve {
			t.Recs = recs[:0:reserve]
		} else {
			t.Recs = make([]Rec, 0, reserve)
		}
	}
	fit := len(br.blocks)
	if br.n > cap(t.Recs) {
		fit = cap(t.Recs) / br.blockRecs
	}
	t.Recs = t.Recs[:min(fit*br.blockRecs, br.n)]
	in, err := br.decodeInPlace(t.Recs, fit)
	defer putInflater(in)
	if err != nil {
		return nil, err
	}
	for i := fit; i < len(br.blocks); i++ {
		free := t.Recs[len(t.Recs):cap(t.Recs)]
		got, err := br.decodeBlock(i, in, free)
		if err != nil {
			return nil, err
		}
		if len(got) <= len(free) {
			t.Recs = t.Recs[:len(t.Recs)+len(got)] // decoded in place
		} else {
			t.Recs = append(t.Recs, got...)
		}
	}
	return t, nil
}

// decodeInPlace decodes blocks 0..fit-1, block i into recs from record
// i*blockRecs, on the calling goroutine and decodeWorkers-1 more, each with
// its own pooled inflater. Workers take blocks in index order and stop
// taking blocks above a known failure, so every block below the lowest
// failure has been decoded and its error is the one a serial loop would
// return. One worker is that serial loop and starts no goroutine.
// decodeInPlace returns the calling goroutine's inflater for the blocks
// that follow; the caller puts it back in the pool.
func (br *BlockReader) decodeInPlace(recs []Rec, fit int) (*inflater, error) {
	var (
		next     atomic.Int64 // the next block to take
		mu       sync.Mutex
		lowest   = fit // the lowest failing block so far
		err      error // its error
		panicked any
	)
	work := func(in *inflater) {
		for {
			i := int(next.Add(1) - 1)
			mu.Lock()
			stop := i >= lowest
			mu.Unlock()
			if stop {
				return
			}
			lo := i * br.blockRecs
			hi := lo + br.blocks[i].count
			if _, berr := br.decodeBlock(i, in, recs[lo:hi:hi]); berr != nil {
				mu.Lock()
				if i < lowest {
					lowest, err = i, berr
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := decodeWorkers(fit, len(br.data)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic here would end the process, out of reach of the
			// caller's recover, so it is raised again on the caller.
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					panicked = r
					mu.Unlock()
				}
			}()
			in := getInflater()
			work(in)
			putInflater(in)
		}()
	}
	in := getInflater()
	work(in)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return in, err
}

// itoa is a minimal strconv.Itoa for non-negative ints, avoiding an import
// on the hot decode path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
