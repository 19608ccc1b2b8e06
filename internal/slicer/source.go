package slicer

import (
	"webslice/internal/trace"
)

// Source supplies trace records to the backward pass. Two implementations
// exist: TraceSource wraps a fully materialized *trace.Trace (the walks read
// its record slice zero-copy, exactly as before), and StreamSource wraps a
// *trace.BlockReader over a v3 block-compressed trace, decoding one block at
// a time so the pass never holds more than one window in memory.
type Source interface {
	// Shell returns the trace's symbol and side tables. For a streaming
	// source the record slice is nil; criteria evaluation, tallies, and
	// syscall-effect lookups only touch the tables.
	Shell() *trace.Trace
	// NumRecs returns the total record count.
	NumRecs() int
	// Materialized returns the whole record slice when the source is fully
	// in memory, else nil.
	Materialized() []trace.Rec
	// BlockRecs returns the streaming window granularity, or 0 for
	// materialized sources.
	BlockRecs() int
	// LoadRange loads records [lo, hi), which must lie within a single
	// block for streaming sources, reusing buf's backing array when it has
	// capacity. The returned slice indexes record lo+j at position j and is
	// valid until the next LoadRange with the same buf.
	LoadRange(lo, hi int, buf []trace.Rec) ([]trace.Rec, error)
}

// traceSource adapts a materialized trace.
type traceSource struct{ t *trace.Trace }

// TraceSource wraps an in-memory trace as a Source.
func TraceSource(t *trace.Trace) Source { return traceSource{t: t} }

func (s traceSource) Shell() *trace.Trace       { return s.t }
func (s traceSource) NumRecs() int              { return len(s.t.Recs) }
func (s traceSource) Materialized() []trace.Rec { return s.t.Recs }
func (s traceSource) BlockRecs() int            { return 0 }
func (s traceSource) LoadRange(lo, hi int, _ []trace.Rec) ([]trace.Rec, error) {
	return s.t.Recs[lo:hi], nil
}

// streamSource adapts a v3 block reader.
type streamSource struct{ br *trace.BlockReader }

// StreamSource wraps a v3 block reader as a streaming Source. Like the
// reader, it is not safe for concurrent use.
func StreamSource(br *trace.BlockReader) Source { return streamSource{br: br} }

func (s streamSource) Shell() *trace.Trace       { return s.br.Shell() }
func (s streamSource) NumRecs() int              { return s.br.NumRecs() }
func (s streamSource) Materialized() []trace.Rec { return nil }
func (s streamSource) BlockRecs() int            { return s.br.BlockRecs() }

func (s streamSource) LoadRange(lo, hi int, buf []trace.Rec) ([]trace.Rec, error) {
	b := s.br.BlockOf(lo)
	recs, err := s.br.DecodeBlock(b, buf)
	if err != nil {
		return nil, err
	}
	start, _ := s.br.BlockBounds(b)
	return recs[lo-start : hi-start], nil
}

// reverseWindows calls fn for successive windows covering [lo, hi), LAST
// window first — the natural order of the backward pass. Each window's slice
// indexes record wlo+j at position j. A materialized source yields the whole
// range as one zero-copy window; a streaming source yields one block-clipped
// window at a time, reusing *buf. fn returning false stops the iteration
// early (no error).
func reverseWindows(src Source, lo, hi int, buf *[]trace.Rec, fn func(wlo int, recs []trace.Rec) bool) error {
	if hi <= lo {
		return nil
	}
	if recs := src.Materialized(); recs != nil {
		fn(lo, recs[lo:hi])
		return nil
	}
	blockRecs := src.BlockRecs()
	for whi := hi; whi > lo; {
		wlo := (whi - 1) / blockRecs * blockRecs // start of the block holding whi-1
		if wlo < lo {
			wlo = lo
		}
		recs, err := src.LoadRange(wlo, whi, *buf)
		if err != nil {
			return err
		}
		*buf = recs[:0]
		if !fn(wlo, recs) {
			return nil
		}
		whi = wlo
	}
	return nil
}
