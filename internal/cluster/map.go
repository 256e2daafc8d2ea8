// Package cluster holds the multi-node control plane (DESIGN.md §13): the
// versioned node→shard assignment map and the static-seed membership with
// periodic health probes. The data plane — forwarding publishes, shipping
// snapshots — lives in internal/transport and internal/server; this
// package only decides who owns what, deterministically.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"github.com/richnote/richnote/internal/wal"
)

// Node identifies one shard-owner process: a stable name (the cluster-wide
// identity, chosen by the operator) and the transport address it serves.
type Node struct {
	Name string
	Addr string
}

// Map is a versioned assignment of every shard to at most one node. The
// initial assignment is a pure function of (sorted node set, shard count)
// via consistent hashing, so every process that knows the same live node
// set computes the same map; planned handoffs (WithOwner), failed adopts
// (WithoutOwner) and recovery (Assemble) then diverge from the pure
// placement, which is why maps ship the full assignment explicitly. The
// version number orders successive maps.
//
// Consistent hashing gives the rebalance property the tests pin down:
// adding a node moves ≈1/N of the shards (all of them *to* the new node),
// removing a node moves only that node's shards, and untouched shards
// never change owner.
type Map struct {
	Version uint64
	Shards  int
	Nodes   []Node // sorted by Name, unique

	owner []int // shard → index into Nodes, or unowned
}

// unowned marks a shard no node currently serves. Maps derived purely
// from a node set never contain it; it enters through Assemble and
// WithoutOwner when the coordinator must record honestly that a handoff
// or takeover adopt failed and the shard is nobody's until a retry lands.
const unowned = -1

// replicas is the virtual-point count per node, matching the user→shard
// ring in internal/server for the same smoothness reasons.
const replicas = 128

type point struct {
	hash uint64
	node int
}

// Compute builds the map for a node set. Nodes are sorted by name; order
// of the input does not matter. Empty or duplicate names are errors — a
// cluster with ambiguous identity must not limp onward — and so are
// duplicate non-empty addresses, which would make address→name lookups
// (the prober's verdict attribution) silently ambiguous.
func Compute(version uint64, nodes []Node, shards int) (*Map, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: cannot compute a map over zero nodes")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: invalid shard count %d", shards)
	}
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	byAddr := make(map[string]string, len(sorted))
	for i, n := range sorted {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: node with empty name (addr %q)", n.Addr)
		}
		if i > 0 && sorted[i-1].Name == n.Name {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		if n.Addr != "" {
			if prev, dup := byAddr[n.Addr]; dup {
				return nil, fmt.Errorf("cluster: nodes %q and %q share address %q", prev, n.Name, n.Addr)
			}
			byAddr[n.Addr] = n.Name
		}
	}

	points := make([]point, 0, len(sorted)*replicas)
	for i, n := range sorted {
		for v := 0; v < replicas; v++ {
			points = append(points, point{hash: hash64("cnode:" + n.Name + ":" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash ties (vanishingly rare) break by node index — already
		// deterministic because nodes are sorted by name.
		return points[i].node < points[j].node
	})

	owner := make([]int, shards)
	for s := range owner {
		h := hash64("cshard:" + strconv.Itoa(s))
		i := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
		if i == len(points) {
			i = 0 // wrap around the circle
		}
		owner[s] = points[i].node
	}
	return &Map{Version: version, Shards: shards, Nodes: sorted, owner: owner}, nil
}

// Owner returns the node owning a shard, or the zero Node (Name == "")
// for a shard the map honestly records as unassigned. Callers must treat
// an unassigned shard as unavailable, never guess an owner for it.
func (m *Map) Owner(shard int) Node {
	if m.owner[shard] == unowned {
		return Node{}
	}
	return m.Nodes[m.owner[shard]]
}

// OwnedBy returns the ascending shard list a node owns; empty (not nil)
// for an unknown node name.
func (m *Map) OwnedBy(name string) []int {
	owned := []int{}
	for s, ni := range m.owner {
		if ni != unowned && m.Nodes[ni].Name == name {
			owned = append(owned, s)
		}
	}
	return owned
}

// Unassigned returns the ascending list of shards no node owns; empty
// (not nil) when the map is fully assigned.
func (m *Map) Unassigned() []int {
	shards := []int{}
	for s, ni := range m.owner {
		if ni == unowned {
			shards = append(shards, s)
		}
	}
	return shards
}

// OwnerNames returns the per-shard owner names ("" for an unassigned
// shard) — the explicit form Assemble consumes, so coordinators can edit
// ownership shard by shard and rebuild a validated map.
func (m *Map) OwnerNames() []string {
	names := make([]string, m.Shards)
	for s := range names {
		names[s] = m.Owner(s).Name
	}
	return names
}

// NodeAddr returns the transport address for a node name, or "" if the
// node is not in the map.
func (m *Map) NodeAddr(name string) string {
	for _, n := range m.Nodes {
		if n.Name == name {
			return n.Addr
		}
	}
	return ""
}

// Rebalance derives the successor map after the live node set changed,
// in either direction. Shrink: shards whose owner survived keep it
// (untouched shards never move, even across planned reassignments), and
// shards orphaned by dead nodes — or recorded unassigned — are handed to
// their consistent-hash owner over the survivors. Grow: a live node
// absent from this map claims exactly the shards consistent hashing
// assigns it over the new set — ≈1/N of the space, all moving *to* the
// joiner — while every other shard keeps its current owner. Rebalance
// only decides the target assignment; the coordinator drives the actual
// freezes and adopts and publishes versions as each one lands.
func (m *Map) Rebalance(version uint64, live []Node) (*Map, error) {
	base, err := Compute(version, live, m.Shards)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(base.Nodes))
	for i, n := range base.Nodes {
		idx[n.Name] = i
	}
	member := make(map[string]bool, len(m.Nodes))
	for _, n := range m.Nodes {
		member[n.Name] = true
	}
	owner := make([]int, m.Shards)
	for s := range owner {
		if !member[base.Nodes[base.owner[s]].Name] {
			// The hash hands this shard to a node this map has never
			// seen: a joiner claiming its 1/N share.
			owner[s] = base.owner[s]
			continue
		}
		// idx never maps "" (Compute rejects empty names), so an
		// unassigned shard falls through to the rehash branch.
		if i, ok := idx[m.Owner(s).Name]; ok {
			owner[s] = i // survivor keeps its shard
		} else {
			owner[s] = base.owner[s] // orphaned or unassigned: rehash
		}
	}
	return &Map{Version: version, Shards: m.Shards, Nodes: base.Nodes, owner: owner}, nil
}

// WithOwner returns a copy of the map with one shard explicitly assigned
// (the planned-handoff path). The target must be a member.
func (m *Map) WithOwner(version uint64, shard int, node string) (*Map, error) {
	if shard < 0 || shard >= m.Shards {
		return nil, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, m.Shards)
	}
	target := -1
	for i, n := range m.Nodes {
		if n.Name == node {
			target = i
			break
		}
	}
	if target < 0 {
		return nil, fmt.Errorf("cluster: node %q is not a member", node)
	}
	owner := append([]int(nil), m.owner...)
	owner[shard] = target
	return &Map{Version: version, Shards: m.Shards, Nodes: m.Nodes, owner: owner}, nil
}

// WithoutOwner returns a copy of the map with one shard explicitly
// unassigned: the coordinator's honest record that a handoff or takeover
// failed and nobody serves the shard until an adopt retry lands.
func (m *Map) WithoutOwner(version uint64, shard int) (*Map, error) {
	if shard < 0 || shard >= m.Shards {
		return nil, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, m.Shards)
	}
	owner := append([]int(nil), m.owner...)
	owner[shard] = unowned
	return &Map{Version: version, Shards: m.Shards, Nodes: m.Nodes, owner: owner}, nil
}

// Assemble builds a map from explicit per-shard owner names — the
// coordinator's constructor for assignments that cannot be derived from
// a node set alone: takeover outcomes where some adopts failed (those
// shards are honestly unowned, name ""), and router restart recovery,
// where ownership is whatever the nodes report rather than what
// consistent hashing would recompute. Every non-empty owner must be a
// member of nodes; the node set goes through Compute's validation
// (sorted, unique names, unique addresses).
func Assemble(version uint64, nodes []Node, shards int, owners []string) (*Map, error) {
	base, err := Compute(version, nodes, shards)
	if err != nil {
		return nil, err
	}
	if len(owners) != shards {
		return nil, fmt.Errorf("cluster: assemble: %d owners for %d shards", len(owners), shards)
	}
	idx := make(map[string]int, len(base.Nodes))
	for i, n := range base.Nodes {
		idx[n.Name] = i
	}
	owner := make([]int, shards)
	for s, name := range owners {
		if name == "" {
			owner[s] = unowned
			continue
		}
		i, ok := idx[name]
		if !ok {
			return nil, fmt.Errorf("cluster: assemble: shard %d owner %q is not a member", s, name)
		}
		owner[s] = i
	}
	return &Map{Version: version, Shards: shards, Nodes: base.Nodes, owner: owner}, nil
}

// mapCodecVersion leads every encoded map.
const mapCodecVersion = 1

// mapFields is the map's one wire description (DESIGN.md §13): the full
// assignment ships explicitly — planned handoffs can diverge from the
// pure consistent-hash placement, so receivers must not recompute. The
// owner array has no count of its own; it is Shards long.
func mapFields(c *wal.Codec, m *Map) {
	ver := uint8(mapCodecVersion)
	c.U8(&ver)
	if ver != mapCodecVersion {
		c.Fail(fmt.Errorf("cluster: unsupported map codec version %d", ver))
	}
	c.U64(&m.Version)
	c.Count(&m.Shards, 4, "shards")
	wal.Slice(c, &m.Nodes, 8, "nodes", func(c *wal.Codec, n *Node) {
		c.Str(&n.Name)
		c.Str(&n.Addr)
	})
	if c.Decoding() {
		m.owner = make([]int, m.Shards)
	}
	for i := range m.owner {
		// Owner indices ride as two's-complement int32 in a u32 slot so
		// the unowned marker (-1) survives the wire.
		o := uint32(int32(m.owner[i]))
		c.U32(&o)
		if c.Decoding() {
			m.owner[i] = int(int32(o))
		}
	}
}

// Encode serializes the map.
func (m *Map) Encode() []byte { return wal.Marshal(mapFields, m) }

// Decode parses and validates a map written by Encode.
func Decode(b []byte) (*Map, error) {
	m := new(Map)
	if err := wal.Unmarshal(mapFields, b, "map", m); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for _, o := range m.owner {
		if o != unowned && (o < 0 || o >= len(m.Nodes)) {
			return nil, fmt.Errorf("cluster: decoding map: owner index %d out of range for %d nodes", o, len(m.Nodes))
		}
	}
	// Re-validate the node set through Compute's rules (sorted, unique,
	// non-empty names) without discarding the explicit assignment.
	if _, err := Compute(m.Version, m.Nodes, m.Shards); err != nil {
		return nil, err
	}
	return m, nil
}

// hash64 is FNV-64a with a murmur-style finalizer. Raw FNV avalanches
// poorly when keys differ only in their last few bytes — "cnode:a:0" …
// "cnode:a:127" land in one narrow band and a single node can capture the
// entire circle. The finalizer spreads those bands uniformly; the
// user→shard ring in internal/server keeps plain FNV because changing it
// would reassign users and orphan persisted shard state.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}
