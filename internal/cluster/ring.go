// Package cluster turns websliced into a horizontally scalable service: a
// consistent-hash ring assigns every job an owner node, a health-checked
// membership evicts dead workers and re-admits recovered ones, and a
// coordinator routes submissions to their owners while transparently
// proxying status and result polls. There is one HTTP API: the
// coordinator serves the workers' handler (service.NewHandler) over
// itself, adding only GET /cluster, and it calls the
// workers with the same service.Client the webslice CLI uses.
//
// The unit of distribution is the job key, service.JobKey — the SHA-256 of
// a submitted trace's bytes, or of a site job's rendering identity and
// renderer version. Because rendering is deterministic and every key in a
// worker's artifact store derives from that same address (internal/store),
// routing a repeat submission to the node that ran it before turns the
// whole job into a cache hit: the ring *is* the cache-affinity scheduler.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// replicas is the virtual-node count per member. 128 points per node
// keeps the ownership skew over random SHA-256 keys within a few tens of
// percent of fair share (see ring_test.go's 10k-digest bound).
const replicas = 128

// point is one virtual node: a position on the 64-bit hash circle owned
// by a member.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Ownership is a pure
// function of the member set — no construction-order or process-lifetime
// state — so every node (and every restart of the same node) that knows
// the same membership computes the same owner for every key. All methods
// are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	nodes  map[string]struct{}
	points []point // sorted by (hash, node)
}

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{nodes: make(map[string]struct{})} }

// hashPoint places virtual node i of a member on the circle.
func hashPoint(node string, i int) uint64 {
	sum := sha256.Sum256([]byte(node + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// hashKey places a job key on the circle. Keys are usually already hex
// SHA-256 digests; hashing again costs little and keeps non-digest keys
// (site identities) uniformly spread.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member. Adding a present member is a no-op. Only keys
// whose owning arc the new member's virtual nodes split change owner —
// roughly 1/N of them for N members — and they all move *to* the new
// member.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < replicas; i++ {
		r.points = append(r.points, point{hashPoint(node, i), node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes a member; only keys it owned change owner. Removing an
// absent member is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	keep := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owners returns up to n distinct members in ring order starting from
// key's position: the owner first (the member of the first virtual node at
// or after the key's position, wrapping around the circle), then the
// failover candidates a router tries when the owner is unreachable. An
// empty ring owns nothing.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
