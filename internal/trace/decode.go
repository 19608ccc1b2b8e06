package trace

import (
	"encoding/binary"
	"fmt"
	"sort"

	"webslice/internal/isa"
	"webslice/internal/vmem"
)

// Binary trace format ("WSLT"): the magic, a uvarint format version, then a
// version-specific body. The paper stored its Pin traces in stable storage
// and re-read them for each slicing run; this format serves the same
// purpose for cmd/webslice, cmd/tracedump and the websliced service.
// Version 3 (v3.go) is the only version written or read; OpenV3 refuses
// any other version by number.

var magic = [4]byte{'W', 'S', 'L', 'T'}

// FormatVersion sniffs the trace format version of an encoded buffer without
// decoding it: 0 if b is not a WSLT trace at all, otherwise the version
// claimed by the header (3 for every trace this package writes).
func FormatVersion(b []byte) int {
	if len(b) <= len(magic) || [4]byte(b[:4]) != magic {
		return 0
	}
	v, n := binary.Uvarint(b[4:])
	if n <= 0 || v > 1<<20 {
		return 0
	}
	return int(v)
}

// DecodeError is a decode failure with the byte offset and section where the
// input stopped making sense. Tools like cmd/tracedump surface the offset so
// a corrupt file can be inspected at the exact spot (`xxd -s <offset>`).
type DecodeError struct {
	Section string // which part of the file was being decoded
	Offset  int    // byte offset into the file, or into a footer or block payload
	Msg     string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("trace: %s: %s (offset %d)", e.Section, e.Msg, e.Offset)
}

// decoder reads varint fields out of an in-memory payload with explicit
// bounds checks; every failure names the section being decoded.
type decoder struct {
	buf     []byte
	pos     int
	section string
}

func (d *decoder) errf(format string, args ...any) error {
	return &DecodeError{Section: d.section, Offset: d.pos, Msg: fmt.Sprintf(format, args...)}
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, d.errf("truncated: need 1 byte, have 0")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.errf("bad or truncated uvarint")
	}
	d.pos += n
	return v, nil
}

// count reads an element count and rejects values that cannot fit in the
// remaining bytes at minBytes per element — a corrupt count then fails here
// instead of driving an unbounded allocation.
func (d *decoder) count(minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes > 0 && v > uint64(d.remaining()/minBytes) {
		return 0, d.errf("count %d impossible: %d bytes remain (min %d per entry)", v, d.remaining(), minBytes)
	}
	return int(v), nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", d.errf("string length %d exceeds %d remaining bytes", n, d.remaining())
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) ranges() ([]vmem.Range, error) {
	n, err := d.count(2)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]vmem.Range, n)
	for i := range out {
		a, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		sz, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = vmem.Range{Addr: vmem.Addr(a), Size: uint32(sz)}
	}
	return out, nil
}

// decodeTables parses the symbol and thread tables of a v3 footer into t.
func decodeTables(d *decoder, t *Trace) error {
	d.section = "symbol table"
	// Minimum 2 bytes per function: two empty strings.
	nf, err := d.count(2)
	if err != nil {
		return err
	}
	if nf > MaxFuncs {
		return d.errf("absurd function count %d", nf)
	}
	t.Funcs = make([]FuncInfo, nf)
	for i := range t.Funcs {
		if t.Funcs[i].Name, err = d.string(); err != nil {
			return err
		}
		if t.Funcs[i].Namespace, err = d.string(); err != nil {
			return err
		}
	}

	d.section = "thread table"
	nth, err := d.count(2)
	if err != nil {
		return err
	}
	if nth > 256 {
		return d.errf("thread count %d exceeds the 256 thread ids", nth)
	}
	for i := 0; i < nth; i++ {
		id, err := d.uvarint()
		if err != nil {
			return err
		}
		if id > 255 {
			return d.errf("thread id %d out of range", id)
		}
		name, err := d.string()
		if err != nil {
			return err
		}
		t.Threads = append(t.Threads, ThreadInfo{ID: uint8(id), Name: name})
	}
	return nil
}

// decodeSideTables parses the syscall, marker, and clock tables of a v3
// footer into t, validating every record index against the trace's nr
// records.
func decodeSideTables(d *decoder, t *Trace, nr int) error {
	d.section = "syscall table"
	nsys, err := d.count(4)
	if err != nil {
		return err
	}
	for i := 0; i < nsys; i++ {
		idx, err := d.uvarint()
		if err != nil {
			return err
		}
		if idx >= uint64(nr) {
			return d.errf("syscall effect at record %d, but only %d records", idx, nr)
		}
		num, err := d.uvarint()
		if err != nil {
			return err
		}
		e := &SysEffect{Num: isa.Sys(num)}
		if e.Reads, err = d.ranges(); err != nil {
			return err
		}
		if e.Writes, err = d.ranges(); err != nil {
			return err
		}
		t.Sys[int(idx)] = e
	}

	d.section = "marker table"
	nm, err := d.count(5)
	if err != nil {
		return err
	}
	for i := 0; i < nm; i++ {
		idx, err := d.uvarint()
		if err != nil {
			return err
		}
		if idx >= uint64(nr) {
			return d.errf("marker at record %d, but only %d records", idx, nr)
		}
		id, err := d.uvarint()
		if err != nil {
			return err
		}
		kb, err := d.byte()
		if err != nil {
			return err
		}
		a, err := d.uvarint()
		if err != nil {
			return err
		}
		sz, err := d.uvarint()
		if err != nil {
			return err
		}
		t.Marks[int(idx)] = &Mark{ID: uint32(id), Kind: isa.MarkKind(kb), Buf: vmem.Range{Addr: vmem.Addr(a), Size: uint32(sz)}}
	}

	d.section = "clock checkpoints"
	nc, err := d.count(2)
	if err != nil {
		return err
	}
	if nc > 0 {
		t.Clock = make([]ClockPoint, nc)
	}
	for i := range t.Clock {
		idx, err := d.uvarint()
		if err != nil {
			return err
		}
		if idx > uint64(nr) {
			return d.errf("checkpoint at record %d, but only %d records", idx, nr)
		}
		cyc, err := d.uvarint()
		if err != nil {
			return err
		}
		t.Clock[i] = ClockPoint{Index: int(idx), Cycle: cyc}
	}
	return nil
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
