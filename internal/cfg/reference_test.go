package cfg

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"webslice/internal/isa"
	"webslice/internal/trace"
)

// referenceBuild is the straightforward forward walk Build must agree with:
// one map lookup for the thread's frame stack, one for the node, and an
// edge insertion per record, with nothing skipped.
func referenceBuild(t *trace.Trace) (*Forest, error) {
	f := &Forest{Graphs: make(map[trace.FuncID]*Graph)}
	stacks := make(map[uint8][]*frame)

	graphFor := func(fn trace.FuncID) *Graph {
		g := f.Graphs[fn]
		if g == nil {
			g = newGraph(fn)
			f.Graphs[fn] = g
		}
		return g
	}

	for i := range t.Recs {
		r := &t.Recs[i]
		st := stacks[r.TID]
		if len(st) == 0 {
			st = append(st, &frame{g: graphFor(r.Func()), last: Entry})
		}
		top := st[len(st)-1]
		if top.g.Fn != r.Func() {
			// A record from a different function without an intervening
			// call: the trace is malformed.
			return nil, fmt.Errorf("cfg: rec %d in %s but open frame is %s (unbalanced call/return)",
				i, t.FuncName(r.Func()), t.FuncName(top.g.Fn))
		}
		n := top.g.node(r.PC)
		top.g.addEdge(top.last, n)
		top.last = n

		switch r.Kind {
		case isa.KindBranch:
			top.g.IsBranch[n] = true
		case isa.KindCall:
			callee := trace.FuncID(r.Aux)
			st = append(st, &frame{g: graphFor(callee), last: Entry})
		case isa.KindRet:
			top.g.addEdge(n, Exit)
			if len(st) > 1 {
				st = st[:len(st)-1]
			} else {
				// Return with no matching call (trace began mid-function):
				// start a fresh instance of whatever comes next.
				st = st[:0]
			}
		}
		stacks[r.TID] = st
	}
	// Close all frames still open at trace end.
	for _, st := range stacks {
		for _, fr := range st {
			if fr.last != Exit {
				fr.g.addEdge(fr.last, Exit)
			}
		}
	}
	// A function may have been registered for a call that never executed a
	// record (trace truncated right after the call): give it a trivial body.
	for _, g := range f.Graphs {
		if len(g.Succs[Entry]) == 0 {
			g.addEdge(Entry, Exit)
		}
	}
	return f, nil
}

// recsFromFuzz decodes three bytes per record over functions 0-2,
// offsets 0-7 and threads 0-1. b0 holds the thread (bit 0) and the kind
// (bits 1-6, modulo the ten kinds); with bit 7 set the record names
// function b1%3 even inside an open frame, which makes the trace
// malformed unless that is the frame's function. b1 also picks the
// function of a fresh instance (b1%3) and a call's callee (b1/3%3). b2
// picks the offset. Otherwise a record stays in its thread's open frame,
// which a shadow call stack tracks, so most inputs are well formed.
func recsFromFuzz(data []byte) []trace.Rec {
	var stacks [2][]trace.FuncID
	var recs []trace.Rec
	for ; len(data) >= 3; data = data[3:] {
		b0, b1, b2 := data[0], data[1], data[2]
		tid := b0 & 1
		kind := isa.Kind((b0 >> 1 & 0x3F) % 10)
		st := stacks[tid]
		if len(st) == 0 {
			st = append(st, trace.FuncID(b1%3))
		}
		fn := st[len(st)-1]
		if b0&0x80 != 0 {
			fn = trace.FuncID(b1 % 3)
		}
		r := trace.Rec{PC: trace.MakePC(fn, uint16(b2%8)), Kind: kind, TID: tid}
		switch kind {
		case isa.KindCall:
			r.Aux = uint32(b1 / 3 % 3)
			st = append(st, trace.FuncID(r.Aux))
		case isa.KindRet:
			st = st[:len(st)-1]
		}
		stacks[tid] = st
		recs = append(recs, r)
	}
	return recs
}

// FuzzBuildMatchesReference: Build must return referenceBuild's error, or
// a forest with the same node numbering, index and branch marks, and the
// same edges. Edges are compared as sets, because the reference closes the
// frames still open at the end in map order.
func FuzzBuildMatchesReference(f *testing.F) {
	// Function 0 returns from PC 5, which gives node 5 an edge to Exit.
	// A fresh instance then runs PC 5 and PC 0: PC 0 must become a node
	// of its own, not Exit, whose placeholder PC is also 0.
	f.Add([]byte{14, 0, 5, 0, 0, 5, 0, 0, 0})
	// A loop on thread 0 around a call into function 1, interleaved with
	// thread 1, and a frame left open at the end.
	f.Add([]byte{0, 0, 0, 10, 0, 1, 12, 3, 2, 1, 1, 0, 0, 1, 0, 14, 1, 3,
		0, 0, 1, 10, 0, 1, 12, 3, 2, 0, 1, 0, 14, 1, 3, 0, 0, 4})
	// A record outside its open frame: both walks must refuse the trace.
	f.Add([]byte{0, 0, 0, 128, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*4096 {
			data = data[:3*4096]
		}
		tr := trace.New()
		tr.Recs = recsFromFuzz(data)
		got, gerr := Build(tr)
		want, werr := referenceBuild(tr)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("Build error %v, reference error %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if len(got.Graphs) != len(want.Graphs) {
			t.Fatalf("Build made %d graphs, reference %d", len(got.Graphs), len(want.Graphs))
		}
		for fn, w := range want.Graphs {
			g := got.Graphs[fn]
			if g == nil {
				t.Fatalf("Build made no graph for function %d", fn)
			}
			if !reflect.DeepEqual(g.PCs, w.PCs) || !reflect.DeepEqual(g.Index, w.Index) || !reflect.DeepEqual(g.IsBranch, w.IsBranch) {
				t.Fatalf("function %d: nodes differ: PCs %v, reference %v", fn, g.PCs, w.PCs)
			}
			for n := range w.PCs {
				if !sameSet(g.Succs[n], w.Succs[n]) || !sameSet(g.Preds[n], w.Preds[n]) {
					t.Fatalf("function %d node %d: succs %v preds %v, reference succs %v preds %v",
						fn, n, g.Succs[n], g.Preds[n], w.Succs[n], w.Preds[n])
				}
			}
		}
	})
}

func sameSet(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
