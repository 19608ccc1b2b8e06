// Package cfg reconstructs per-function control-flow graphs from a dynamic
// instruction trace — the first half of the profiler's forward pass.
//
// As in the paper, CFGs must be built from the dynamic trace rather than
// statically: targets of indirect branches are only known at runtime, and
// function boundaries are recovered by matching call and return instructions.
// Every function's graph carries its own virtual entry and exit nodes.
package cfg

import (
	"fmt"

	"webslice/internal/isa"
	"webslice/internal/trace"
)

// Graph is the control-flow graph of one function, over the static PCs that
// executed at least once. Node 0 is the virtual entry, node 1 the virtual
// exit; remaining nodes correspond to PCs.
type Graph struct {
	Fn    trace.FuncID
	PCs   []uint32 // node index -> PC (entries 0 and 1 are 0 for entry/exit)
	Index map[uint32]int32
	Succs [][]int32
	Preds [][]int32
	// IsBranch marks nodes observed with a conditional-branch record.
	IsBranch []bool
}

// Entry and Exit are the virtual node indices present in every Graph.
const (
	Entry = 0
	Exit  = 1
)

func newGraph(fn trace.FuncID) *Graph {
	g := &Graph{
		Fn:       fn,
		PCs:      []uint32{0, 0},
		Index:    make(map[uint32]int32),
		Succs:    make([][]int32, 2),
		Preds:    make([][]int32, 2),
		IsBranch: []bool{false, false},
	}
	return g
}

// NumNodes returns the node count including entry and exit.
func (g *Graph) NumNodes() int { return len(g.PCs) }

func (g *Graph) node(pc uint32) int32 {
	if n, ok := g.Index[pc]; ok {
		return n
	}
	n := int32(len(g.PCs))
	g.PCs = append(g.PCs, pc)
	g.Succs = append(g.Succs, nil)
	g.Preds = append(g.Preds, nil)
	g.IsBranch = append(g.IsBranch, false)
	g.Index[pc] = n
	return n
}

func (g *Graph) addEdge(from, to int32) {
	for _, s := range g.Succs[from] {
		if s == to {
			return
		}
	}
	g.Succs[from] = append(g.Succs[from], to)
	g.Preds[to] = append(g.Preds[to], from)
}

// Conditional reports whether node n has two or more successors (a decision
// point the CDG cares about).
func (g *Graph) Conditional(n int32) bool { return len(g.Succs[n]) >= 2 }

// frame tracks one open function instance during the forward scan.
type frame struct {
	g    *Graph
	last int32 // node of the most recent record in this instance
}

// Forest is the set of per-function CFGs built from a trace.
type Forest struct {
	Graphs map[trace.FuncID]*Graph
}

// Build scans the trace once and reconstructs every executed function's CFG.
// It tolerates truncated traces: instances still open at the end (or return
// records with no matching call) are connected to their function's exit so
// every executed node reaches exit, which the postdominator computation
// requires.
func Build(t *trace.Trace) (*Forest, error) {
	f := &Forest{Graphs: make(map[trace.FuncID]*Graph)}
	var stacks [256][]frame // open instances per thread, innermost last

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
			st = append(st, frame{g: graphFor(r.Func()), last: Entry})
		}
		top := &st[len(st)-1]
		g := top.g
		if g.Fn != r.Func() {
			// A record from a different function without an intervening
			// call: the trace is malformed.
			return nil, fmt.Errorf("cfg: rec %d in %s but open frame is %s (unbalanced call/return)",
				i, t.FuncName(r.Func()), t.FuncName(g.Fn))
		}
		// Loops retrace edges they already recorded: a successor of the
		// last node with this PC is the node itself, and the edge exists.
		// Entry and Exit carry placeholder PC 0, so they never match.
		n := int32(-1)
		for _, s := range g.Succs[top.last] {
			if s > Exit && g.PCs[s] == r.PC {
				n = s
				break
			}
		}
		if n < 0 {
			n = g.node(r.PC)
			g.addEdge(top.last, n)
		}
		top.last = n

		switch r.Kind {
		case isa.KindBranch:
			g.IsBranch[n] = true
		case isa.KindCall:
			callee := trace.FuncID(r.Aux)
			st = append(st, frame{g: graphFor(callee), last: Entry})
		case isa.KindRet:
			g.addEdge(n, Exit)
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

// Validate checks structural invariants of every graph: edges are symmetric
// between Succs and Preds, every node is reachable from entry, and every
// node reaches exit. Returns the first violation.
func (f *Forest) Validate() error {
	for fn, g := range f.Graphs {
		n := g.NumNodes()
		for u := int32(0); int(u) < n; u++ {
			for _, v := range g.Succs[u] {
				if !contains(g.Preds[v], u) {
					return fmt.Errorf("cfg: fn %d edge %d->%d missing pred link", fn, u, v)
				}
			}
		}
		if err := g.checkReach(); err != nil {
			return fmt.Errorf("cfg: fn %d: %w", fn, err)
		}
	}
	return nil
}

func (g *Graph) checkReach() error {
	// Forward reachability from entry.
	seen := make([]bool, g.NumNodes())
	var stack []int32
	stack = append(stack, Entry)
	seen[Entry] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succs[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("node %d (pc %#x) unreachable from entry", i, g.PCs[i])
		}
	}
	// Backward reachability from exit.
	seen = make([]bool, g.NumNodes())
	stack = stack[:0]
	stack = append(stack, Exit)
	seen[Exit] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Preds[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("node %d (pc %#x) cannot reach exit", i, g.PCs[i])
		}
	}
	return nil
}

func contains(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
