package trace

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// DEFLATE decoding (RFC 1951) of v3 block payloads. WriteV3Blocks
// compresses each block with compress/flate's writer; ReadAll inflates it
// here, straight from the payload slice into the inflater's output buffer:
// a 64-bit bit buffer refilled eight bytes at a time, Huffman codes decoded
// through lookup tables, and back-references copied inside the output
// buffer. The inflater accepts exactly the streams compress/flate's reader
// accepts and yields the same bytes for them (FuzzInflateMatchesFlate and
// TestInflateMatchesFlate check it against compress/flate):
//
//   - a code must be complete, except for the empty code and a single code
//     of length 1, which zlib writes for a one-distance tree; decoding a
//     symbol outside such a code is an error;
//   - a dynamic block declares at most 286 literal/length and 30 distance
//     codes, and the fixed codes' symbols 286, 287, 30 and 31 are errors;
//   - a distance reaching before the start of the output is an error;
//   - bytes after the final block are ignored.
//
// Past the end of its input the bit buffer reads zero bytes, so the hot
// loop never tests for the end; a stream that consumes any of them is
// truncated, which overrun detects before a block can be trusted.

// Decode table entries, one uint32 each: the code's length in bits 0-3,
// the entry's extra-bit count (or a subtable's index width) in bits 4-7,
// its kind in bits 8-10, and its value in bits 16-31: a literal byte or
// precode symbol, a length or distance base, or a subtable's offset. An
// entry of kind kindInvalid (the zero entry among them) is no code.
const (
	kindInvalid = 0 << 8
	kindSym     = 1 << 8 // a literal byte, or a code-length symbol
	kindBase    = 2 << 8 // a match length or distance base, plus extra bits
	kindEnd     = 3 << 8 // the end of the block
	kindSub     = 4 << 8 // a pointer to the subtable of longer codes
	kindMask    = 7 << 8
)

// Table sizes. A table holds 1<<bits primary entries, indexed by the next
// bits of input, then the subtables of the codes longer than that. A
// subtable of 2^k entries roots a complete subtree whose deepest code is k
// levels down, so it holds at least k+1 codes; since 2^k/(k+1) grows with
// k, the most entries n codes of length at most 15 can need is that of as
// many 2^(15-bits)-entry subtables as they fill. 286 literal/length codes
// fill 47 subtables of 32 entries and one of 8; 30 distance codes fill 3
// of 128 and one of 32.
const (
	litBits       = 10
	litTableSize  = 1<<litBits + 47*32 + 8
	distBits      = 8
	distTableSize = 1<<distBits + 3*128 + 32
	preBits       = 7 // code-length codes are at most 7 bits long

	maxLitCodes  = 286
	maxDistCodes = 30
)

var (
	errTruncated   = errors.New("deflate stream truncated")
	errBlockType   = errors.New("deflate block of reserved type 3")
	errStoredLen   = errors.New("deflate stored block length fails its check")
	errCodeLengths = errors.New("deflate block with invalid code lengths")
	errCode        = errors.New("deflate stream holds an invalid code")
	errDistance    = errors.New("deflate distance reaches before the start of the output")
)

// codeOrder is the order in which a dynamic block lists the lengths of
// the code-length code.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The entries of every symbol, without the code length, and the fixed
// codes' tables.
var (
	litEnts   [288]uint32
	distEnts  [32]uint32
	preEnts   [19]uint32
	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32
)

func init() {
	lengthBase := [29]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra := [29]uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase := [30]uint32{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	for s := range litEnts {
		switch {
		case s < 256:
			litEnts[s] = kindSym | uint32(s)<<16
		case s == 256:
			litEnts[s] = kindEnd
		case s < maxLitCodes:
			litEnts[s] = kindBase | lengthExtra[s-257]<<4 | lengthBase[s-257]<<16
		}
	}
	for s, base := range distBase {
		distEnts[s] = kindBase | uint32(max(s-2, 0)/2)<<4 | base<<16
	}
	for s := range preEnts {
		preEnts[s] = kindSym | uint32(s)<<16
	}
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144, s >= 280:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		default:
			lens[s] = 7
		}
	}
	buildTable(fixedLit[:], litBits, lens[:], litEnts[:])
	for s := range distEnts {
		lens[s] = 5
	}
	buildTable(fixedDist[:], distBits, lens[:len(distEnts)], distEnts[:])
}

// buildTable fills t, a table of 1<<tb primary entries followed by room
// for subtables, with the canonical Huffman code that lens gives symbols
// 0..len(lens)-1, symbol s decoding to ents[s]. It reports false for the
// lengths compress/flate refuses: an over-subscribed code, or an
// incomplete one other than the empty code and a single code of length 1,
// whose tables hold an invalid entry wherever no code is.
func buildTable(t []uint32, tb uint, lens []uint8, ents []uint32) bool {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left := 1 // the codes of the next length that are still free
	maxLen := 0
	for l := 1; l < len(count); l++ {
		left = left<<1 - count[l]
		if count[l] > 0 {
			maxLen = l
		}
	}
	if left < 0 {
		return false
	}
	primary := t[:1<<tb]
	if left > 0 {
		if maxLen > 1 {
			return false
		}
		clear(primary)
		for s, l := range lens {
			if l == 1 { // its code is the bit 0
				for i := 0; i < len(primary); i += 2 {
					primary[i] = ents[s] | 1
				}
			}
		}
		return true
	}

	// Symbols in code order: by length, then by symbol.
	var offs [16]int
	for l := 1; l < len(offs)-1; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	code, i := 0, 0 // the next code, most significant bit first, and its symbol
	prefix, sub, subBits, next := -1, 0, uint(0), 1<<tb
	for l := 1; l <= maxLen; l, code = l+1, code<<1 {
		for n := count[l]; n > 0; n, code, i = n-1, code+1, i+1 {
			count[l]-- // count now holds the codes not yet placed
			ent := ents[sorted[i]] | uint32(l)
			if l <= int(tb) {
				for j := reverse(code, l); j < len(primary); j += 1 << l {
					primary[j] = ent
				}
				continue
			}
			drop := l - int(tb)
			if p := code >> drop; p != prefix {
				// A new subtable, just large enough for the subtree of
				// the codes that start with p: this code is its first.
				subBits = uint(drop)
				for free := 1<<subBits - count[l] - 1; free > 0 && int(subBits)+int(tb) < maxLen; {
					subBits++
					free = free<<1 - count[int(subBits)+int(tb)]
				}
				prefix, sub, next = p, next, next+1<<subBits
				primary[reverse(p, int(tb))] = kindSub | uint32(subBits)<<4 | uint32(sub)<<16
			}
			st := t[sub : sub+1<<subBits]
			for j := reverse(code&(1<<drop-1), drop); j < len(st); j += 1 << drop {
				st[j] = ent
			}
		}
	}
	return true
}

// reverse returns the low n bits of code in reverse order: the order in
// which a DEFLATE stream holds a Huffman code's bits.
func reverse(code, n int) int { return int(bits.Reverse16(uint16(code)) >> (16 - n)) }

// An inflater decodes DEFLATE streams into a scratch output buffer that
// it reuses, with the decode tables of the current dynamic block, so the
// blocks one ReadAll worker decodes allocate nothing once the buffer has
// grown to a block's inflated size.
type inflater struct {
	buf []byte // output scratch: the last stream's bytes, then garbage

	// The input and the bit buffer: b holds the next nb bits of src, least
	// significant first, and pos counts the bytes of src loaded into b,
	// with the zero bytes read past its end.
	src []byte
	pos int
	b   uint64
	nb  uint

	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	pre  [1 << preBits]uint32
	lens [maxLitCodes + maxDistCodes]uint8
}

// inflaters recycles ReadAll's inflaters across decodes: an inflater's
// tables take about 14 KB, and its output buffer grows to a block's
// inflated size.
var inflaters = sync.Pool{New: func() any { return new(inflater) }}

func getInflater() *inflater { return inflaters.Get().(*inflater) }

// putInflater returns in to the pool. inflate has already dropped in's
// reference to its input, so a pooled inflater keeps no trace alive.
func putInflater(in *inflater) { inflaters.Put(in) }

// inflate decompresses comp, which may inflate to at most limit bytes. The
// returned bytes live in in's scratch buffer until its next inflate. The
// buffer never grows past limit, and a stream that goes on beyond it
// fails, so a few compressed bytes cannot make the reader allocate more
// than the block's record count can legally need.
func (in *inflater) inflate(comp []byte, limit int) ([]byte, error) {
	in.src, in.pos, in.b, in.nb = comp, 0, 0, 0
	out, o, err := in.blocks(in.buf[:min(cap(in.buf), limit)], limit)
	in.src = nil
	in.buf = out
	if err != nil {
		return nil, err
	}
	return out[:o], nil
}

// blocks decodes the stream's blocks into out up to and including the
// final one, and returns out, grown if it had to be, and the length of the
// output.
func (in *inflater) blocks(out []byte, limit int) ([]byte, int, error) {
	o := 0
	for {
		hdr, ok := in.bits(3)
		if !ok {
			return out, o, errTruncated
		}
		var err error
		switch hdr >> 1 {
		case 0:
			out, o, err = in.stored(out, o, limit)
		case 1:
			out, o, err = in.huffman(&fixedLit, &fixedDist, out, o, limit)
		case 2:
			if err = in.readTables(); err == nil {
				out, o, err = in.huffman(&in.lit, &in.dist, out, o, limit)
			}
		default:
			err = errBlockType
		}
		if err != nil {
			return out, o, err
		}
		if hdr&1 != 0 {
			if in.overrun() {
				return out, o, errTruncated
			}
			return out, o, nil
		}
	}
}

// refill tops the bit buffer up to at least 56 bits. Past the end of the
// input it loads zero bytes; it reports false once bits already consumed
// include one of them.
func (in *inflater) refill() bool {
	if in.pos+8 <= len(in.src) {
		// The bits loaded above nb are the next byte's, which the next
		// refill loads again to the same place.
		in.b |= binary.LittleEndian.Uint64(in.src[in.pos:]) << in.nb
		in.pos += int(63-in.nb) >> 3
		in.nb |= 56
		return true
	}
	if in.overrun() {
		return false
	}
	for ; in.nb <= 55; in.nb += 8 {
		if in.pos < len(in.src) {
			in.b |= uint64(in.src[in.pos]) << in.nb
		}
		in.pos++
	}
	return true
}

// overrun reports whether the bits consumed so far reach past the end of
// the input.
func (in *inflater) overrun() bool { return 8*(in.pos-len(in.src)) > int(in.nb) }

// bits consumes the next n ≤ 32 bits and returns them, least significant
// first, or false if the input ended before them.
func (in *inflater) bits(n uint) (uint32, bool) {
	if in.nb < n && !in.refill() {
		return 0, false
	}
	v := uint32(in.b & (1<<n - 1))
	in.b >>= n
	in.nb -= n
	return v, true
}

// stored copies a stored block to out[o:]: after the header, the stream
// skips to a byte boundary and holds a length, its complement, and that
// many bytes.
func (in *inflater) stored(out []byte, o, limit int) ([]byte, int, error) {
	p := in.pos - int(in.nb>>3) // the whole bytes in the bit buffer go back
	in.b, in.nb = 0, 0
	if p+4 > len(in.src) {
		return out, o, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(in.src[p:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(in.src[p+2:]) {
		return out, o, errStoredLen
	}
	p += 4
	if p+n > len(in.src) {
		return out, o, errTruncated
	}
	out, err := room(out, o, o+n, limit)
	if err != nil {
		return out, o, err
	}
	copy(out[o:], in.src[p:p+n])
	in.pos = p + n
	return out, o + n, nil
}

// readTables reads a dynamic block's code lengths and builds its literal/
// length and distance tables.
func (in *inflater) readTables() error {
	hdr, ok := in.bits(14)
	if !ok {
		return errTruncated
	}
	nlit, ndist, nclen := int(hdr&31)+257, int(hdr>>5&31)+1, int(hdr>>10)+4
	if nlit > maxLitCodes || ndist > maxDistCodes {
		return errCodeLengths
	}
	var clens [len(codeOrder)]uint8
	for _, s := range codeOrder[:nclen] {
		l, ok := in.bits(3)
		if !ok {
			return errTruncated
		}
		clens[s] = uint8(l)
	}
	if !buildTable(in.pre[:], preBits, clens[:], preEnts[:]) {
		return errCodeLengths
	}
	lens := in.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if in.nb < preBits && !in.refill() {
			return errTruncated
		}
		e := in.pre[in.b&(1<<preBits-1)]
		if e&kindMask != kindSym {
			return errCode
		}
		in.b >>= e & 15
		in.nb -= uint(e & 15)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var v uint8 // the repeated length
		var rep uint32
		switch sym {
		case 16:
			if i == 0 {
				return errCodeLengths
			}
			v = lens[i-1]
			rep, ok = in.bits(2)
			rep += 3
		case 17:
			rep, ok = in.bits(3)
			rep += 3
		default:
			rep, ok = in.bits(7)
			rep += 11
		}
		if !ok {
			return errTruncated
		}
		if i+int(rep) > len(lens) {
			return errCodeLengths
		}
		for end := i + int(rep); i < end; i++ {
			lens[i] = v
		}
	}
	if !buildTable(in.lit[:], litBits, lens[:nlit], litEnts[:]) ||
		!buildTable(in.dist[:], distBits, lens[nlit:], distEnts[:]) {
		return errCodeLengths
	}
	return nil
}

// huffman decodes one Huffman-coded block through tables lit and dist into
// out[o:]. It keeps the bit buffer in locals and refills it once per
// symbol: 48 bits hold the longest literal/length code, its extra bits, the
// longest distance code and its extra bits.
func (in *inflater) huffman(lit *[litTableSize]uint32, dist *[distTableSize]uint32, out []byte, o, limit int) ([]byte, int, error) {
	src, pos, b, nb := in.src, in.pos, in.b, in.nb
	for {
		if nb < 48 {
			if pos+8 <= len(src) {
				b |= binary.LittleEndian.Uint64(src[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				in.pos, in.b, in.nb = pos, b, nb
				if !in.refill() {
					return out, o, errTruncated
				}
				pos, b, nb = in.pos, in.b, in.nb
			}
		}
		e := lit[b&(1<<litBits-1)]
		if e&kindMask == kindSub {
			e = lit[e>>16+uint32(b>>litBits)&(1<<(e>>4&15)-1)]
		}
		b >>= e & 15
		nb -= uint(e & 15)
		switch e & kindMask {
		case kindSym:
			if o >= len(out) {
				var err error
				if out, err = room(out, o, o+1, limit); err != nil {
					return out, o, err
				}
			}
			out[o] = byte(e >> 16)
			o++
			continue
		case kindBase:
		case kindEnd:
			in.pos, in.b, in.nb = pos, b, nb
			return out, o, nil
		default:
			return out, o, errCode
		}
		x := e >> 4 & 15
		end := o + int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= uint(x)

		e = dist[b&(1<<distBits-1)]
		if e&kindMask == kindSub {
			e = dist[e>>16+uint32(b>>distBits)&(1<<(e>>4&15)-1)]
		}
		if e&kindMask != kindBase {
			return out, o, errCode
		}
		b >>= e & 15
		nb -= uint(e & 15)
		x = e >> 4 & 15
		d := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= uint(x)
		if d > o {
			return out, o, errDistance
		}
		if end > len(out) {
			var err error
			if out, err = room(out, o, end, limit); err != nil {
				return out, o, err
			}
		}
		from := o - d
		if d >= 8 && end+8 <= len(out) {
			// Eight bytes at a time, each word read after its source
			// was written; the last may write up to 7 bytes past end.
			for ; o < end; o, from = o+8, from+8 {
				binary.LittleEndian.PutUint64(out[o:], binary.LittleEndian.Uint64(out[from:]))
			}
		} else {
			// The d bytes before o repeat: copy them, then the doubled
			// run, until it reaches end.
			for o < end {
				o += copy(out[o:end], out[from:o])
			}
		}
		o = end
	}
}

// room returns out with at least need bytes, keeping out[:o], or an error
// if need is past limit. It grows out to twice its length, at least 4 KiB,
// and at most limit.
func room(out []byte, o, need, limit int) ([]byte, error) {
	if need <= len(out) {
		return out, nil
	}
	if need > limit {
		return out, errors.New("inflates past " + itoa(limit) + " bytes, the most its record count encodes to")
	}
	grown := make([]byte, min(max(2*len(out), need, 4096), limit))
	copy(grown, out[:o])
	return grown, nil
}
