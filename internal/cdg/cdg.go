// Package cdg computes the control dependence graph of each traced function
// using the Ferrante–Ottenstein–Warren construction over the CFG and its
// postdominator tree: node n is control-dependent on branch b iff b has a
// successor s such that n postdominates s, and n does not postdominate b.
//
// The result — a map from program counter to the branch PCs it depends on —
// is the second half of the profiler's forward pass. As in the paper, it can
// be stored to stable storage and re-used by backward passes with different
// slicing criteria: the artifact store persists it with its deterministic
// codec (store.EncodeDeps/DecodeDeps).
package cdg

import (
	"sort"

	"webslice/internal/cfg"
	"webslice/internal/postdom"
)

// Deps maps each static PC to the set of branch PCs it is directly
// control-dependent on. PCs with no dependences are absent.
type Deps struct {
	ByPC map[uint32][]uint32
}

// Of returns the branch PCs that pc is control-dependent on (nil if none).
func (d *Deps) Of(pc uint32) []uint32 { return d.ByPC[pc] }

// Compute builds control dependences for every function in the forest:
// each function's postdominator tree and FOW walk. PCs embed their FuncID,
// so per-function results touch disjoint keys.
func Compute(f *cfg.Forest) *Deps { return ComputeWithTrees(f, nil) }

// ComputeWithTrees is Compute with caller-supplied postdominator trees
// (keyed by function), so the trees can be shared with other analyses.
// Functions missing from trees get theirs computed on the fly.
func ComputeWithTrees(f *cfg.Forest, trees map[uint32]*postdom.Tree) *Deps {
	d := &Deps{ByPC: make(map[uint32][]uint32)}
	for _, g := range f.Graphs {
		t := trees[uint32(g.Fn)]
		if t == nil {
			t = postdom.Compute(g)
		}
		computeGraph(g, t, d.ByPC)
	}
	return d
}

func computeGraph(g *cfg.Graph, t *postdom.Tree, out map[uint32][]uint32) {
	n := g.NumNodes()
	// touched collects the PCs this graph contributed so only their slices
	// need the determinism sort (a graph never shares PCs with another).
	var touched []uint32
	for b := int32(0); int(b) < n; b++ {
		if !g.Conditional(b) || b == cfg.Entry {
			continue
		}
		bpc := g.PCs[b]
		ipdomB := t.IPDom[b]
		for _, s := range g.Succs[b] {
			// Walk s up the postdominator tree until ipdom(b): every node on
			// the way is control-dependent on b.
			for v := s; v != ipdomB && v != -1; v = t.IPDom[v] {
				if v == cfg.Entry || v == cfg.Exit {
					continue
				}
				pc := g.PCs[v]
				deps := out[pc]
				if !hasDep(deps, bpc) {
					if len(deps) == 0 {
						touched = append(touched, pc)
					}
					out[pc] = append(deps, bpc)
				}
			}
		}
	}
	// Deterministic ordering for serialization and tests.
	for _, pc := range touched {
		deps := out[pc]
		sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	}
}

func hasDep(deps []uint32, b uint32) bool {
	for _, x := range deps {
		if x == b {
			return true
		}
	}
	return false
}
