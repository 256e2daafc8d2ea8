package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func mkNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Name: fmt.Sprintf("node%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	return nodes
}

func TestComputeDeterministic(t *testing.T) {
	nodes := mkNodes(4)
	a, err := Compute(7, nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle the input order: the assignment must not care.
	shuffled := []Node{nodes[2], nodes[0], nodes[3], nodes[1]}
	b, err := Compute(7, shuffled, 64)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 64; s++ {
		if a.Owner(s) != b.Owner(s) {
			t.Fatalf("shard %d owner differs across input orders: %v vs %v", s, a.Owner(s), b.Owner(s))
		}
	}
	if a.Version != 7 {
		t.Fatalf("version = %d", a.Version)
	}
}

// TestRebalance pins the consistent-hashing contract: adding a node moves
// ≈1/N of the shards and every moved shard lands on the new node;
// removing a node moves only that node's shards; untouched shards never
// change owner.
func TestRebalance(t *testing.T) {
	const shards = 256
	for _, n := range []int{2, 3, 4, 6, 8} {
		n := n
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			nodes := mkNodes(n)
			before, err := Compute(1, nodes, shards)
			if err != nil {
				t.Fatal(err)
			}

			// Add one node.
			added := Node{Name: fmt.Sprintf("node%d", n), Addr: "127.0.0.1:9999"}
			after, err := Compute(2, append(append([]Node{}, nodes...), added), shards)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for s := 0; s < shards; s++ {
				if before.Owner(s) != after.Owner(s) {
					moved++
					if after.Owner(s).Name != added.Name {
						t.Errorf("shard %d moved from %s to %s, not to the added node",
							s, before.Owner(s).Name, after.Owner(s).Name)
					}
				}
			}
			// Expectation is shards/(n+1); allow a generous 3x band in both
			// directions — 128 virtual points keeps it far tighter in
			// practice, but the test pins the property, not the variance.
			want := shards / (n + 1)
			if moved < want/3 || moved > want*3 {
				t.Errorf("add: moved %d shards, want ≈%d", moved, want)
			}
			if moved == 0 {
				t.Error("add: no shards moved to the new node")
			}

			// Remove one node (the last, so names stay contiguous).
			removed := nodes[n-1]
			smaller, err := Compute(3, nodes[:n-1], shards)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < shards; s++ {
				if before.Owner(s).Name == removed.Name {
					if smaller.Owner(s).Name == removed.Name {
						t.Errorf("shard %d still assigned to removed node", s)
					}
					continue
				}
				if before.Owner(s) != smaller.Owner(s) {
					t.Errorf("shard %d owned by untouched node %s was reassigned to %s",
						s, before.Owner(s).Name, smaller.Owner(s).Name)
				}
			}
		})
	}
}

func TestOwnedByPartitions(t *testing.T) {
	const shards = 64
	m, err := Compute(1, mkNodes(3), shards)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]string)
	total := 0
	for _, n := range m.Nodes {
		owned := m.OwnedBy(n.Name)
		total += len(owned)
		for _, s := range owned {
			if prev, dup := seen[s]; dup {
				t.Fatalf("shard %d owned by both %s and %s", s, prev, n.Name)
			}
			seen[s] = n.Name
			if m.Owner(s).Name != n.Name {
				t.Fatalf("OwnedBy/Owner disagree on shard %d", s)
			}
		}
	}
	if total != shards {
		t.Fatalf("OwnedBy covers %d of %d shards", total, shards)
	}
	if got := m.OwnedBy("phantom"); len(got) != 0 {
		t.Fatalf("unknown node owns %v", got)
	}
}

func TestMapCodecRoundTrip(t *testing.T) {
	m, err := Compute(42, mkNodes(3), 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || got.Shards != m.Shards || !reflect.DeepEqual(got.Nodes, m.Nodes) {
		t.Fatalf("decoded map differs: %+v vs %+v", got, m)
	}
	for s := 0; s < m.Shards; s++ {
		if got.Owner(s) != m.Owner(s) {
			t.Fatalf("shard %d owner differs after codec round trip", s)
		}
	}
	if _, err := Decode([]byte{9, 9, 9}); err == nil {
		t.Fatal("garbage decoded without error")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer decoded without error")
	}
}

func TestComputeRejectsBadInput(t *testing.T) {
	if _, err := Compute(1, nil, 4); err == nil {
		t.Error("empty node set accepted")
	}
	if _, err := Compute(1, mkNodes(2), 0); err == nil {
		t.Error("zero shards accepted")
	}
	dup := []Node{{Name: "a", Addr: "x"}, {Name: "a", Addr: "y"}}
	if _, err := Compute(1, dup, 4); err == nil {
		t.Error("duplicate node name accepted")
	}
	if _, err := Compute(1, []Node{{Name: "", Addr: "x"}}, 4); err == nil {
		t.Error("empty node name accepted")
	}
}

func TestMembershipDeathAfterThreshold(t *testing.T) {
	peers := mkNodes(3)
	m := NewMembership(peers, 2)

	live, died := m.Observe(nil)
	if len(live) != 3 || len(died) != 0 {
		t.Fatalf("clean pass: live = %v, died = %v, want 3 and none", live, died)
	}

	down := map[string]bool{peers[1].Name: true}
	live, died = m.Observe(down) // failure 1 of 2: still live
	if len(live) != 3 || len(died) != 0 {
		t.Fatalf("after one failure live = %v, died = %v, want 3 and none (threshold 2)", live, died)
	}

	live, died = m.Observe(down) // failure 2 of 2: dead
	if len(live) != 2 || live[0].Name != "node0" || live[1].Name != "node2" {
		t.Fatalf("after death live = %v", live)
	}
	if len(died) != 1 || died[0] != peers[1] {
		t.Fatalf("died = %v, want exactly %v", died, peers[1])
	}
	if got := m.Live(); len(got) != 2 {
		t.Fatalf("Live() = %v after death, want the 2 survivors", got)
	}

	// Death is one-way: the node recovering does not resurrect it, and a
	// dead node cannot die twice.
	live, died = m.Observe(nil)
	if len(live) != 2 || len(died) != 0 {
		t.Fatalf("dead node resurrected or re-died: live = %v, died = %v", live, died)
	}

	// A success between failures resets the count: one failure, one clean
	// pass, one failure is not a death at threshold 2.
	flaky := map[string]bool{peers[0].Name: true}
	m.Observe(flaky)
	m.Observe(nil)
	if live, died = m.Observe(flaky); len(live) != 2 || len(died) != 0 {
		t.Fatalf("non-consecutive failures killed a node: live = %v, died = %v", live, died)
	}
}

// TestRebalanceGrow pins the grow direction: rebalancing onto a live set
// that includes a brand-new node moves ≈1/N of the shards, every moved
// shard lands on the joiner, and survivors keep everything else.
func TestRebalanceGrow(t *testing.T) {
	const shards = 256
	nodes := mkNodes(3)
	before, err := Compute(1, nodes, shards)
	if err != nil {
		t.Fatal(err)
	}
	joiner := Node{Name: "node3", Addr: "127.0.0.1:9999"}
	live := append(append([]Node{}, nodes...), joiner)
	after, err := before.Rebalance(2, live)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != 2 {
		t.Fatalf("version = %d, want 2", after.Version)
	}
	moved := 0
	for s := 0; s < shards; s++ {
		if before.Owner(s) == after.Owner(s) {
			continue
		}
		moved++
		if after.Owner(s).Name != joiner.Name {
			t.Errorf("shard %d moved from %s to %s, not to the joiner",
				s, before.Owner(s).Name, after.Owner(s).Name)
		}
	}
	want := shards / 4
	if moved < want/3 || moved > want*3 {
		t.Errorf("grow moved %d shards, want ≈%d", moved, want)
	}
	if moved == 0 {
		t.Error("grow moved nothing to the joiner")
	}
	// Growing and shrinking in one call still holds the contract: drop a
	// survivor, keep the joiner. Every shard ends on a live node.
	mixed, err := before.Rebalance(3, []Node{nodes[0], nodes[1], joiner})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		owner := mixed.Owner(s).Name
		if owner != nodes[0].Name && owner != nodes[1].Name && owner != joiner.Name {
			t.Fatalf("shard %d assigned to %q, not a live node", s, owner)
		}
	}
}

// TestAssembleAndUnassigned pins the explicit-unassigned machinery an
// honest coordinator needs: Assemble accepts "" owners, Owner reports
// them as nobody, Unassigned lists them, WithoutOwner creates them, and
// the wire codec round-trips them.
func TestAssembleAndUnassigned(t *testing.T) {
	nodes := mkNodes(2)
	owners := []string{"node0", "", "node1", "", "node0", "node1", "node0", ""}
	m, err := Assemble(9, nodes, len(owners), owners)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Unassigned(); !reflect.DeepEqual(got, []int{1, 3, 7}) {
		t.Fatalf("Unassigned = %v, want [1 3 7]", got)
	}
	if got := m.Owner(1); got != (Node{}) {
		t.Fatalf("unassigned shard owner = %+v, want zero Node", got)
	}
	if got := m.OwnerNames(); !reflect.DeepEqual(got, owners) {
		t.Fatalf("OwnerNames = %v, want %v", got, owners)
	}
	for _, n := range nodes {
		for _, s := range m.OwnedBy(n.Name) {
			if m.Owner(s).Name != n.Name {
				t.Fatalf("OwnedBy/Owner disagree on shard %d", s)
			}
		}
	}

	// Unassigned entries survive the wire.
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.OwnerNames(), owners) {
		t.Fatalf("owners after codec round trip = %v, want %v", got.OwnerNames(), owners)
	}
	if !reflect.DeepEqual(got.Unassigned(), []int{1, 3, 7}) {
		t.Fatalf("Unassigned after codec round trip = %v", got.Unassigned())
	}

	// WithoutOwner is the honest-failure transition.
	less, err := m.WithoutOwner(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if less.Owner(0) != (Node{}) || m.Owner(0).Name != "node0" {
		t.Fatal("WithoutOwner must clear the copy and leave the original")
	}
	if !reflect.DeepEqual(less.Unassigned(), []int{0, 1, 3, 7}) {
		t.Fatalf("Unassigned after WithoutOwner = %v", less.Unassigned())
	}

	// Validation: owners length must match, names must be members.
	if _, err := Assemble(1, nodes, 4, []string{"node0", "node1"}); err == nil {
		t.Error("short owners slice accepted")
	}
	if _, err := Assemble(1, nodes, 2, []string{"node0", "phantom"}); err == nil {
		t.Error("non-member owner accepted")
	}
}

func TestComputeDuplicateAddr(t *testing.T) {
	dup := []Node{{Name: "a", Addr: "127.0.0.1:9000"}, {Name: "b", Addr: "127.0.0.1:9000"}}
	if _, err := Compute(1, dup, 4); err == nil {
		t.Error("duplicate address accepted: nameForAddr would be ambiguous")
	}
}

// TestMembershipAdmit pins the join-side membership contract: a dead node
// stays dead on its own, Admit readmits it (or adds a brand new peer) with
// a clean failure count, and every pass returns the live set it leaves.
func TestMembershipAdmit(t *testing.T) {
	peers := mkNodes(2)
	m := NewMembership(peers, 1)

	if live, _ := m.Observe(map[string]bool{peers[1].Name: true}); len(live) != 1 {
		t.Fatalf("live = %v, want 1 after death", live)
	}

	// Recovery alone does not readmit...
	if live, _ := m.Observe(nil); len(live) != 1 {
		t.Fatal("dead node slipped back in without Admit")
	}

	// ...Admit does, even at a new address.
	m.Admit(Node{Name: peers[1].Name, Addr: "127.0.0.1:9777"})
	live, died := m.Observe(nil)
	if len(live) != 2 || len(died) != 0 {
		t.Fatalf("live after Admit = %v, died = %v", live, died)
	}
	if live[1].Addr != "127.0.0.1:9777" {
		t.Fatalf("Admit kept the stale address: %v", live[1])
	}

	// Admit of a live member re-addresses it in place.
	m.Admit(Node{Name: peers[0].Name, Addr: "127.0.0.1:9666"})
	if got := m.Live(); len(got) != 2 || got[0].Addr != "127.0.0.1:9666" {
		t.Fatalf("re-address of a live member: %v", got)
	}

	// Admit of a brand-new peer extends the probed set, sorted by name.
	m.Admit(Node{Name: "node00", Addr: "127.0.0.1:9888"})
	live, _ = m.Observe(nil)
	if len(live) != 3 || live[0].Name != "node0" || live[1].Name != "node00" || live[2].Name != "node1" {
		t.Fatalf("live after admitting a new peer = %v, want node0, node00, node1", live)
	}

	// Live hands out copies: scribbling on one does not reach the set.
	m.Live()[0].Name = "scribble"
	if got := m.Live(); got[0].Name != "node0" {
		t.Fatalf("Live() aliases the membership's own slice: %v", got)
	}
}
