package trace

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/bits"
	"strings"
	"testing"
)

// flateInflate is the reference the inflater must agree with:
// compress/flate's reader, failing if comp inflates past limit bytes.
func flateInflate(comp []byte, limit int) ([]byte, error) {
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(comp)), int64(limit)+1))
	if err != nil {
		return nil, err
	}
	if len(out) > limit {
		return nil, errors.New("past the limit")
	}
	return out, nil
}

// checkInflate inflates comp with a pooled inflater, which earlier
// streams have left with their tables and output, and fails unless it and
// compress/flate both fail or both return the same bytes.
func checkInflate(t *testing.T, comp []byte, limit int) {
	t.Helper()
	want, werr := flateInflate(comp, limit)
	in := getInflater()
	defer putInflater(in)
	got, err := in.inflate(comp, limit)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%d bytes %x, limit %d: inflater error %v, compress/flate error %v", len(comp), comp, limit, err, werr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%d bytes %x, limit %d: inflater gives %d bytes, compress/flate %d", len(comp), comp, limit, len(got), len(want))
	}
}

// A bitWriter hand-builds DEFLATE streams, least significant bit first.
type bitWriter struct {
	out []byte
	n   uint // bits written
}

func (w *bitWriter) bits(v uint32, n uint) {
	for i := uint(0); i < n; i++ {
		if w.n%8 == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << (w.n % 8)
		w.n++
	}
}

// code writes symbol s of the canonical code that lens describes, most
// significant bit first.
func (w *bitWriter) code(lens []uint8, s int) {
	var count, next [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for _, l := range lens[:s] {
		if l == lens[s] {
			next[l]++
		}
	}
	l := uint(lens[s])
	w.bits(uint32(bits.Reverse16(uint16(next[l]))>>(16-l)), l)
}

// dynamicHeader writes a dynamic block's header, final if final, giving the
// literal/length and distance codes lens lit and dist. Every length is
// written with a 4-bit code-length code, so none repeats.
func (w *bitWriter) dynamicHeader(final bool, lit, dist []uint8) {
	if final {
		w.bits(1, 1)
	} else {
		w.bits(0, 1)
	}
	w.bits(2, 2)
	w.bits(uint32(len(lit)-257), 5)
	w.bits(uint32(len(dist)-1), 5)
	w.bits(uint32(len(codeOrder)-4), 4)
	pre := make([]uint8, len(codeOrder))
	for s := 0; s < 16; s++ {
		pre[s] = 4
	}
	for _, s := range codeOrder {
		w.bits(uint32(pre[s]), 3)
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		w.code(pre, int(l))
	}
}

// fixedLens are the lengths of the fixed literal/length code.
func fixedLens() []uint8 {
	lens := make([]uint8, 288)
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
	return lens
}

// inflateSeeds returns the streams FuzzInflateMatchesFlate and
// TestInflateMatchesFlate start from, by name.
func inflateSeeds(t testing.TB) map[string][]byte {
	seeds := map[string][]byte{}
	// A column payload, the inflater's real input, then some text.
	var recSeed []byte
	for i := range 160 {
		recSeed = append(recSeed, byte(i*i/7))
	}
	data := appendColumns(nil, recsFromSeed(recSeed))
	data = append(data, strings.Repeat("the records of one block, ", 8)...)
	deflate := func(level int, flushAt int) []byte {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(data[:flushAt])
		if flushAt < len(data) {
			fw.Flush()
			fw.Write(data[flushAt:])
		}
		fw.Close()
		return buf.Bytes()
	}
	seeds["HuffmanOnly"] = deflate(flate.HuffmanOnly, len(data))
	seeds["DefaultCompression"] = deflate(flate.DefaultCompression, len(data))
	for level := flate.NoCompression; level <= flate.BestCompression; level++ {
		seeds["level "+itoa(level)] = deflate(level, len(data))
	}
	seeds["flush mid-stream"] = deflate(flate.DefaultCompression, len(data)/2)

	// A stored block, then a final fixed-Huffman block holding the
	// literals "ab" and a match of length 4 at distance 2.
	var w bitWriter
	w.bits(0, 3)
	w.out = append(w.out, 3, 0, 0xfc, 0xff, 'x', 'y', 'z')
	w.n = uint(8 * len(w.out))
	lit := fixedLens()
	w.bits(1, 1)
	w.bits(1, 2)
	w.code(lit, 'a')
	w.code(lit, 'b')
	w.code(lit, 258)                       // length 4
	w.code(bytes.Repeat([]byte{5}, 32), 1) // distance 2
	w.code(lit, 256)
	seeds["stored and fixed"] = w.out

	// A distance tree of one code of length 1: "a", then a match of
	// length 3 at distance 1.
	lit = make([]uint8, 258)
	lit['a'], lit[256], lit[257] = 1, 2, 2
	w = bitWriter{}
	w.dynamicHeader(true, lit, []uint8{1})
	w.code(lit, 'a')
	w.code(lit, 257)
	w.code([]uint8{1}, 0)
	w.code(lit, 256)
	seeds["one-code distance tree"] = w.out

	// Literals only, with an empty distance tree.
	lit = make([]uint8, 257)
	lit['a'], lit['b'], lit[256] = 1, 2, 2
	w = bitWriter{}
	w.dynamicHeader(true, lit, []uint8{0})
	for _, c := range "abba" {
		w.code(lit, int(c))
	}
	w.code(lit, 256)
	seeds["literals, empty distance tree"] = w.out

	// Codes of every length up to 15, and matches whose codes and extra
	// bits take 48 bits, as many as the hot loop makes sure it holds
	// before it decodes a symbol. Literal bytes 0-13
	// and distance symbols 0-13 get lengths 1-14; the end of block,
	// length symbol 284 (5 extra bits) and distance symbols 28 and 29 (13
	// extra bits) get 15. Matches at distance 1 first make the output
	// longer than 16,385 bytes; then each match at distance 16,385 follows
	// a 14-bit literal and one more, so some match starts wherever the bit
	// buffer stands after a refill.
	lit = make([]uint8, 285)
	dist := make([]uint8, 30)
	for s := range 14 {
		lit[s], dist[s] = uint8(s+1), uint8(s+1)
	}
	lit[256], lit[284], dist[28], dist[29] = 15, 15, 15, 15
	w = bitWriter{}
	w.dynamicHeader(true, lit, dist)
	w.code(lit, 0)
	match := func(d int) { // a match of length 227
		w.code(lit, 284)
		w.bits(0, 5)
		w.code(dist, d)
		if d == 28 {
			w.bits(0, 13)
		}
	}
	for range 73 { // 1 + 73*227 = 16,572 bytes
		match(0)
	}
	for s := range 14 {
		match(28)
		w.code(lit, 13)
		w.code(lit, s)
	}
	match(28)
	w.code(lit, 256)
	seeds["15-bit codes"] = w.out
	return seeds
}

// refusedStreams returns hand-built streams that compress/flate refuses
// for their code lengths alone: every symbol they then decode is valid,
// so an inflater that let the lengths through would return bytes.
func refusedStreams() map[string][]byte {
	streams := map[string][]byte{}
	add := func(name string, lit, dist []uint8, syms ...int) {
		var w bitWriter
		w.dynamicHeader(true, lit, dist)
		for _, s := range syms {
			w.code(lit, s)
		}
		streams[name] = w.out
	}
	lit := make([]uint8, 257)
	lit['a'], lit[256] = 2, 1 // the code 11 is left unused
	add("incomplete literal/length code", lit, []uint8{1}, 256)
	lit['b'] = 1 // three codes of length 1
	add("over-subscribed literal/length code", lit, []uint8{1}, 256)
	lit = make([]uint8, 287)
	lit['a'], lit[256], lit[286] = 1, 2, 2
	add("287 literal/length codes", lit, []uint8{1}, 'a', 256)
	lit = make([]uint8, 258)
	lit['a'], lit[256], lit[257] = 1, 2, 2
	dist := make([]uint8, 31)
	dist[0], dist[30] = 1, 1
	add("31 distance codes", lit, dist, 'a', 256)

	// A first code length that repeats the previous one: the code-length
	// code gives symbol 16 one bit, and symbols 1 and 2 two.
	var w bitWriter
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(0, 5)    // 257 literal/length codes
	w.bits(0, 5)    // 1 distance code
	w.bits(18-4, 4) // 18 code-length code lengths, up to symbol 1's
	pre := make([]uint8, len(codeOrder))
	pre[16], pre[1], pre[2] = 1, 2, 2
	for _, s := range codeOrder[:18] {
		w.bits(uint32(pre[s]), 3)
	}
	w.code(pre, 16)
	w.bits(0, 2)
	streams["repeat before the first length"] = w.out
	return streams
}

// TestInflateMatchesFlate checks the inflater against compress/flate on
// every seed of FuzzInflateMatchesFlate: whole, cut at every byte, under
// a limit at and one byte below its inflated length, and, for a small
// stream, with each bit flipped. The refused streams must fail.
func TestInflateMatchesFlate(t *testing.T) {
	const big = 1 << 20
	for name, comp := range inflateSeeds(t) {
		t.Run(name, func(t *testing.T) {
			want, err := flateInflate(comp, big)
			if err != nil {
				t.Fatalf("compress/flate refuses the seed: %v", err)
			}
			checkInflate(t, comp, big)
			checkInflate(t, comp, len(want))
			if len(want) > 0 {
				checkInflate(t, comp, len(want)-1)
			}
			for n := range comp {
				checkInflate(t, comp[:n], big)
			}
			if len(comp) <= 64 {
				for i := range 8 * len(comp) {
					mut := bytes.Clone(comp)
					mut[i/8] ^= 1 << (i % 8)
					checkInflate(t, mut, big)
				}
			}
		})
	}
	for name, comp := range refusedStreams() {
		t.Run(name, func(t *testing.T) {
			if _, err := flateInflate(comp, big); err == nil {
				t.Fatal("compress/flate accepts the stream")
			}
			checkInflate(t, comp, big)
		})
	}
}

// FuzzInflateMatchesFlate: for any bytes and any limit up to 1 MiB, the
// inflater and compress/flate both fail or return the same bytes.
func FuzzInflateMatchesFlate(f *testing.F) {
	for _, comp := range inflateSeeds(f) {
		f.Add(comp, uint32(1<<20))
	}
	for _, comp := range refusedStreams() {
		f.Add(comp, uint32(1<<20))
	}
	f.Fuzz(func(t *testing.T, comp []byte, limit uint32) {
		checkInflate(t, comp, int(limit%(1<<20+1)))
	})
}
