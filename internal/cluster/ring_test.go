package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// randomDigests generates n deterministic pseudo-random hex digests — the
// shape of real job keys (trace content digests).
func randomDigests(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("trace-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

func ringOf(nodes ...string) *Ring {
	r := NewRing()
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// Ownership must be a pure function of the member set: any construction
// order, and any "restart" that rebuilds the ring from the same peers,
// computes the same owner for every key.
func TestRingDeterministicOwnership(t *testing.T) {
	keys := randomDigests(2000)
	a := ringOf("http://w1", "http://w2", "http://w3")
	b := ringOf("http://w3", "http://w1", "http://w2") // different join order
	c := ringOf("http://w1", "http://w2", "http://w3") // fresh process, same view
	for _, k := range keys {
		oa, ob, oc := a.Owners(k, 1)[0], b.Owners(k, 1)[0], c.Owners(k, 1)[0]
		if oa != ob || oa != oc {
			t.Fatalf("owner of %s differs across equivalent rings: %q / %q / %q", k[:12], oa, ob, oc)
		}
	}
}

// Adding a member must move keys only TO the new member, and roughly 1/N
// of them; removing it must restore exactly the old assignment.
func TestRingBoundedMovementOnJoinLeave(t *testing.T) {
	keys := randomDigests(10000)
	nodes := []string{"http://w1", "http://w2", "http://w3", "http://w4"}
	r := ringOf(nodes...)

	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owners(k, 1)[0]
	}

	r.Add("http://w5")
	moved := 0
	for _, k := range keys {
		now := r.Owners(k, 1)[0]
		if now != before[k] {
			moved++
			if now != "http://w5" {
				t.Fatalf("key %s moved %q -> %q, not to the joining node", k[:12], before[k], now)
			}
		}
	}
	// Fair share after the join is 1/5 of the keys; virtual-node jitter is
	// allowed a 2x slack but a join must never reshuffle half the space.
	fair := len(keys) / 5
	if moved == 0 || moved > 2*fair {
		t.Fatalf("join moved %d/%d keys, want (0, %d]", moved, len(keys), 2*fair)
	}

	r.Remove("http://w5")
	for _, k := range keys {
		if now := r.Owners(k, 1)[0]; now != before[k] {
			t.Fatalf("leave did not restore key %s: %q != %q", k[:12], now, before[k])
		}
	}
}

// Removing a member must only reassign the keys that member owned.
func TestRingRemoveOnlyMovesOwnedKeys(t *testing.T) {
	keys := randomDigests(5000)
	r := ringOf("http://w1", "http://w2", "http://w3")
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owners(k, 1)[0]
	}
	r.Remove("http://w2")
	for _, k := range keys {
		now := r.Owners(k, 1)[0]
		if before[k] == "http://w2" {
			if now == "http://w2" {
				t.Fatalf("key %s still owned by removed node", k[:12])
			}
		} else if now != before[k] {
			t.Fatalf("key %s not owned by removed node moved %q -> %q", k[:12], before[k], now)
		}
	}
}

// With 128 virtual nodes a member, ownership over 10k random digests
// stays within a factor of two of fair share for every member.
func TestRingDistributionSkew(t *testing.T) {
	keys := randomDigests(10000)
	nodes := []string{"http://w1", "http://w2", "http://w3", "http://w4"}
	r := ringOf(nodes...)
	counts := make(map[string]int)
	for _, k := range keys {
		owners := r.Owners(k, 1)
		if len(owners) != 1 {
			t.Fatal("no owner on a populated ring")
		}
		counts[owners[0]]++
	}
	fair := float64(len(keys)) / float64(len(nodes))
	for _, n := range nodes {
		got := float64(counts[n])
		if got < fair/2 || got > fair*2 {
			t.Fatalf("node %s owns %.0f keys, outside [%.0f, %.0f] (counts=%v)", n, got, fair/2, fair*2, counts)
		}
	}
}

// Owners returns distinct members in failover order, owner first.
func TestRingOwnersFailoverOrder(t *testing.T) {
	r := ringOf("http://w1", "http://w2", "http://w3")
	for _, k := range randomDigests(200) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s, 3) = %v, want 3 distinct members", k[:12], owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%s, 3) repeats %q: %v", k[:12], o, owners)
			}
			seen[o] = true
		}
		if first := r.Owners(k, 1); owners[0] != first[0] {
			t.Fatalf("Owners(%s, 3)[0] = %q, Owners(%s, 1) = %v", k[:12], owners[0], k[:12], first)
		}
	}
	// Asking for more members than exist caps at the member count.
	if got := r.Owners("k", 10); len(got) != 3 {
		t.Fatalf("Owners(k, 10) = %v, want 3", got)
	}
}

func TestRingEmptyAndNoop(t *testing.T) {
	r := NewRing()
	if owners := r.Owners("k", 1); len(owners) != 0 {
		t.Fatalf("empty ring returned owners %v", owners)
	}
	r.Remove("absent") // no-op
	r.Add("http://w1")
	r.Add("http://w1") // duplicate no-op
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Add, want 1", r.Len())
	}
	if owners := r.Owners("k", 1); len(owners) != 1 || owners[0] != "http://w1" {
		t.Fatalf("single-node ring Owners(k, 1) = %v", owners)
	}
}
