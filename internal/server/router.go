package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/wal"
)

// Router is the stateless HTTP front of a multi-node deployment (DESIGN.md
// §13). It serves the same HTTP/JSON API as a standalone Server but owns no
// shard state: each request is routed by the user ring to the owning node
// and forwarded over the binary transport. The router doubles as the
// cluster coordinator — it computes the initial shard map, probes node
// health, commands crash takeover on death, admits joining nodes and
// drives the grow rebalance (DESIGN.md §15), and on its own restart
// rebuilds the map from what the nodes report owning rather than
// recomputing from seed placement.
//
// The map never lies: ownership is published only after the owning node
// acknowledged the adopt, a failed takeover leaves the shard explicitly
// unassigned on a retry list re-driven every probe pass, and a failed
// planned move rolls the shard back onto its source.
//
// Backpressure propagates end-to-end: a node's ErrBackpressure becomes the
// router's 429 with the node's Retry-After; an unreachable or non-owning
// node becomes a 503 with Retry-After, since a map update is usually
// seconds away.
type Router struct {
	shards int
	ring   *ring
	cfg    RouterConfig

	// membership is set once in Start; the join handler reads it from the
	// transport goroutine, hence the atomic pointer.
	membership atomic.Pointer[cluster.Membership] // richnote:atomic

	cmap atomic.Pointer[cluster.Map] // richnote:atomic

	// rebalanceMu serializes map transitions (initial assignment, death
	// rebalances, planned moves, join rebalances, adopt retries) so
	// versions advance linearly.
	rebalanceMu sync.Mutex

	// peerMu guards the node registry. It was construction-frozen before
	// joins existed; now FrameJoin admits new nodes and a rejoin can move
	// a name to a new address, so every lookup goes through an accessor.
	peerMu    sync.RWMutex
	clients   map[string]*transport.Client // node name → transport client
	forwarded map[string]*atomic.Uint64    // node name → publishes forwarded
	nodeUp    map[string]*atomic.Bool      // node name → last probe/forward verdict

	// pending is the adopt-retry set: shards the map honestly records as
	// unassigned because a takeover adopt (or a move rollback) failed,
	// mapped to the number of probe passes to skip before retrying. Every
	// pass decrements; at zero the shard is re-driven onto its
	// consistent-hash owner over the live set.
	pendingMu sync.Mutex
	pending   map[int]int

	// joining single-flights the per-node rebalance goroutine that a join
	// announce schedules, so a one-second announce loop cannot stack
	// concurrent rebalances for the same node.
	joiningMu sync.Mutex
	joining   map[string]bool

	// lastRounds caches each shard's last observed round from tick and
	// health responses, so a dead or unassigned shard reports its
	// last-known round instead of a zero that reads as "reset". The slice
	// header is set once in NewRouter and never reassigned; each element
	// is its own atomic.
	lastRounds []atomic.Int64

	ts *transport.Server // join listener; nil when cfg.Listen is empty

	handoffs atomic.Uint64 // richnote:atomic — shards reassigned by this coordinator

	latMu      sync.Mutex
	fwdLatency metrics.Histogram // forward round-trip seconds; richnote:confined(latMu)
}

// rejoinGracePasses is how many probe passes restart recovery waits
// before force-adopting a shard nobody reported owning. The owner may be
// a post-seed joiner the restarted router's seed list does not know; its
// announce loop usually folds it back in well inside the grace.
const rejoinGracePasses = 3

// RouterConfig configures a Router; Peers and Shards are required.
type RouterConfig struct {
	// Shards is the cluster-wide shard count; must match every node's
	// Config.Shards.
	Shards int
	// Peers is the static seed membership: every shard-owner node's name
	// and transport address. Nodes beyond the seed join at runtime by
	// announcing to Listen.
	Peers []cluster.Node
	// Listen is the router's own cluster-transport address, serving node
	// join announces (FrameJoin). Empty disables joins.
	Listen string
	// ProbeInterval is the health-probe period; defaults to 500ms.
	ProbeInterval time.Duration
	// ProbeThreshold is the consecutive-failure count declaring a node
	// dead; defaults to 2.
	ProbeThreshold int
	// RetryAfter is advertised on 503 responses while the map is catching
	// up with a dead node; defaults to 1s.
	RetryAfter time.Duration
	// Client tunes the per-node transport clients.
	Client transport.ClientConfig
}

// NewRouter builds a router over a static peer set. Start performs the
// initial shard assignment (or restart recovery) and begins health
// probing.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("server: router needs a positive shard count, got %d", cfg.Shards)
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("server: router needs at least one peer")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeThreshold <= 0 {
		cfg.ProbeThreshold = 2
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	r := &Router{
		shards:     cfg.Shards,
		ring:       newRing(cfg.Shards, 0),
		cfg:        cfg,
		clients:    make(map[string]*transport.Client, len(cfg.Peers)),
		forwarded:  make(map[string]*atomic.Uint64, len(cfg.Peers)),
		nodeUp:     make(map[string]*atomic.Bool, len(cfg.Peers)),
		pending:    make(map[int]int),
		joining:    make(map[string]bool),
		lastRounds: make([]atomic.Int64, cfg.Shards),
	}
	byAddr := make(map[string]string, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if _, dup := r.clients[p.Name]; dup {
			return nil, fmt.Errorf("server: duplicate peer name %q", p.Name)
		}
		// Duplicate addresses would make nameForAddr ambiguous and land
		// probe verdicts on the wrong node.
		if prev, dup := byAddr[p.Addr]; dup {
			return nil, fmt.Errorf("server: peers %q and %q share address %q", prev, p.Name, p.Addr)
		}
		byAddr[p.Addr] = p.Name
		r.clients[p.Name] = transport.NewClient(p.Addr, cfg.Client)
		r.forwarded[p.Name] = &atomic.Uint64{}
		up := &atomic.Bool{}
		up.Store(true)
		r.nodeUp[p.Name] = up
	}
	return r, nil
}

// client returns the transport client for a node name, nil if unknown.
func (r *Router) client(name string) *transport.Client {
	r.peerMu.RLock()
	defer r.peerMu.RUnlock()
	return r.clients[name]
}

// isUp reports the node's last probe/forward verdict; false for unknown.
func (r *Router) isUp(name string) bool {
	r.peerMu.RLock()
	up := r.nodeUp[name]
	r.peerMu.RUnlock()
	return up != nil && up.Load()
}

func (r *Router) setUp(name string, up bool) {
	r.peerMu.RLock()
	b := r.nodeUp[name]
	r.peerMu.RUnlock()
	if b != nil {
		b.Store(up)
	}
}

func (r *Router) countForward(name string) {
	r.peerMu.RLock()
	c := r.forwarded[name]
	r.peerMu.RUnlock()
	if c != nil {
		c.Add(1)
	}
}

// peerNames returns every registered node name, sorted.
func (r *Router) peerNames() []string {
	r.peerMu.RLock()
	names := make([]string, 0, len(r.clients))
	for name := range r.clients {
		names = append(names, name)
	}
	r.peerMu.RUnlock()
	sort.Strings(names)
	return names
}

func (r *Router) nameForAddr(addr string) string {
	r.peerMu.RLock()
	defer r.peerMu.RUnlock()
	for name, c := range r.clients {
		if c.Addr() == addr {
			return name
		}
	}
	return ""
}

// registerPeer installs (or re-addresses) a node in the registry. A
// rejoining node usually comes back on a new port; its old client is
// closed and replaced. The node starts presumed up — it just answered
// the join dial-back.
func (r *Router) registerPeer(n cluster.Node) {
	r.peerMu.Lock()
	defer r.peerMu.Unlock()
	if c := r.clients[n.Name]; c != nil {
		if c.Addr() != n.Addr {
			c.Close()
			r.clients[n.Name] = transport.NewClient(n.Addr, r.cfg.Client)
		}
	} else {
		r.clients[n.Name] = transport.NewClient(n.Addr, r.cfg.Client)
	}
	if r.forwarded[n.Name] == nil {
		r.forwarded[n.Name] = &atomic.Uint64{}
	}
	up := r.nodeUp[n.Name]
	if up == nil {
		up = &atomic.Bool{}
		r.nodeUp[n.Name] = up
	}
	up.Store(true)
}

// Start brings the coordinator up: open the join listener (if
// configured), establish the initial map — fresh assignment over the
// seed peers, or restart recovery from node-reported ownership — and
// begin health probing.
func (r *Router) Start() error {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()

	if r.cfg.Listen != "" {
		ts, err := transport.Listen(r.cfg.Listen, r)
		if err != nil {
			return fmt.Errorf("server: router join listener: %w", err)
		}
		r.ts = ts
	}

	m, err := r.initialMap()
	if err != nil {
		if r.ts != nil {
			r.ts.Close()
			r.ts = nil
		}
		return err
	}
	r.broadcastMap(m)
	r.cmap.Store(m)

	// The membership probe is a transport ping: one small frame through
	// the same pooled client the data path uses, so "healthy" means the
	// path requests take is healthy.
	probe := func(addr string) error {
		name := r.nameForAddr(addr)
		if name == "" {
			return fmt.Errorf("server: probe for unknown peer address %s", addr)
		}
		_, _, err := r.client(name).Call(FramePing, nil)
		r.setUp(name, err == nil)
		return err
	}
	ms := cluster.NewMembership(r.cfg.Peers, probe, cluster.MembershipConfig{
		Interval:  r.cfg.ProbeInterval,
		Threshold: r.cfg.ProbeThreshold,
	})
	ms.OnChange(r.onMembershipChange)
	ms.OnProbe(r.retryAdopts)
	r.membership.Store(ms)
	ms.Start()
	return nil
}

// initialMap establishes the map Start publishes. It first asks every
// seed peer what it currently owns: a fresh cluster reports nothing and
// gets the consistent-hash assignment; any reported ownership means this
// router is restarting over a live cluster and must rebuild the map from
// the truth on the nodes — recomputing from seed placement would
// silently disown every post-seed move. Callers hold rebalanceMu.
func (r *Router) initialMap() (*cluster.Map, error) {
	peers := append([]cluster.Node(nil), r.cfg.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name < peers[j].Name })

	type report struct {
		node cluster.Node
		h    nodeHealth
	}
	var reports []report
	var reachable []cluster.Node
	anyOwned := false
	for _, p := range peers {
		_, raw, err := r.client(p.Name).Call(FrameHealth, nil)
		if err != nil {
			r.setUp(p.Name, false)
			continue
		}
		var h nodeHealth
		if wal.Unmarshal(nodeHealthFields, raw, "health response", &h) != nil {
			continue
		}
		reachable = append(reachable, p)
		reports = append(reports, report{node: p, h: h})
		if len(h.Shards) > 0 {
			anyOwned = true
		}
	}

	if !anyOwned {
		// Fresh cluster: version 1 over every seed peer, each adopting its
		// assigned shards from (empty) shared storage. A peer that cannot
		// take its assignment fails startup, exactly as before.
		m, err := cluster.Compute(1, r.cfg.Peers, r.shards)
		if err != nil {
			return nil, err
		}
		for _, n := range m.Nodes {
			for _, shard := range m.OwnedBy(n.Name) {
				if err := r.commandAdopt(n.Name, shard); err != nil {
					return nil, fmt.Errorf("server: initial assignment of shard %d to %s: %w", shard, n.Name, err)
				}
			}
		}
		return m, nil
	}

	// Restart recovery: ownership is what the nodes report. A conflict —
	// two nodes claiming one shard, possible only if the previous
	// coordinator died mid-move — resolves to the first claimant in name
	// order; the loser's claim goes stale with the map broadcast below.
	version := uint64(0)
	owners := make([]string, r.shards)
	for _, rep := range reports {
		if rep.h.MapVersion > version {
			version = rep.h.MapVersion
		}
		for _, sr := range rep.h.Shards {
			if sr.Shard >= r.shards {
				continue
			}
			if owners[sr.Shard] == "" {
				owners[sr.Shard] = rep.node.Name
			}
			r.lastRounds[sr.Shard].Store(int64(sr.Round))
		}
	}
	// Shards nobody reported stay honestly unassigned, queued for adopt
	// retry after a short grace: their owner may be a post-seed joiner
	// this router's seed list does not know about yet, and its announce
	// loop will fold it back in (foldReportedOwnership) before the grace
	// expires in the common case.
	for s, owner := range owners {
		if owner == "" {
			r.addPending(s, rejoinGracePasses)
		}
	}
	m, err := cluster.Assemble(version+1, reachable, r.shards, owners)
	if err != nil {
		return nil, fmt.Errorf("server: restart recovery: %w", err)
	}
	return m, nil
}

// Stop halts the join listener and probing and drops every node
// connection. Shard-owner nodes keep serving; only this front goes away.
func (r *Router) Stop() {
	if r.ts != nil {
		r.ts.Close()
		r.ts = nil
	}
	if ms := r.membership.Load(); ms != nil {
		ms.Stop()
	}
	r.peerMu.Lock()
	defer r.peerMu.Unlock()
	for _, c := range r.clients {
		c.Close()
	}
}

// Map returns the current cluster map (nil before Start completes).
func (r *Router) Map() *cluster.Map { return r.cmap.Load() }

// Handoffs returns how many shard reassignments this coordinator has
// commanded (crash takeovers + planned moves).
func (r *Router) Handoffs() uint64 { return r.handoffs.Load() }

// Membership exposes the health prober, mainly so tests can force a
// CheckNow instead of waiting out probe intervals.
func (r *Router) Membership() *cluster.Membership { return r.membership.Load() }

// ClusterAddr returns the join listener's address; "" when joins are
// disabled (no cfg.Listen) or before Start.
func (r *Router) ClusterAddr() string {
	if r.ts == nil {
		return ""
	}
	return r.ts.Addr()
}

// Pending returns the ascending list of shards awaiting an adopt retry.
func (r *Router) Pending() []int {
	r.pendingMu.Lock()
	shards := make([]int, 0, len(r.pending))
	for s := range r.pending {
		shards = append(shards, s)
	}
	r.pendingMu.Unlock()
	sort.Ints(shards)
	return shards
}

func (r *Router) addPending(shard, grace int) {
	r.pendingMu.Lock()
	r.pending[shard] = grace
	r.pendingMu.Unlock()
}

func (r *Router) clearPending(shard int) {
	r.pendingMu.Lock()
	delete(r.pending, shard)
	r.pendingMu.Unlock()
}

// onMembershipChange is the takeover coordinator: on node death it
// recomputes the target assignment over the survivors and commands crash
// takeover of every orphaned shard. Only adoptions the owning node
// acknowledged are published; a failed adopt leaves the shard explicitly
// unassigned and queued for retry — the map must never claim ownership
// the cluster does not have. Runs on the membership's probe goroutine.
func (r *Router) onMembershipChange(live []cluster.Node) {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()

	old := r.cmap.Load()
	if old == nil || len(live) == 0 {
		return // nothing to reassign to; requests will 503 until nodes return
	}
	target, err := old.Rebalance(old.Version+1, live)
	if err != nil {
		return
	}
	liveNames := make(map[string]bool, len(live))
	for _, n := range live {
		liveNames[n.Name] = true
	}
	owners := old.OwnerNames()
	for s := 0; s < r.shards; s++ {
		was, now := owners[s], target.Owner(s).Name
		if was == now || now == "" {
			continue
		}
		if was != "" && liveNames[was] {
			// The current owner is alive: this is a planned-move target (a
			// joiner's hash share), not an orphan. Planned moves go through
			// the freeze/verify path (rebalanceOnto), never a blind adopt.
			continue
		}
		if err := r.commandAdopt(now, s); err != nil {
			// The target could not take the shard (transport failure or
			// replay error). Record it unassigned and retry on subsequent
			// probe passes; honest failure beats a map that lies about
			// ownership.
			owners[s] = ""
			r.addPending(s, 0)
			continue
		}
		owners[s] = now
		r.clearPending(s)
		r.handoffs.Add(1)
	}
	next, err := cluster.Assemble(old.Version+1, live, r.shards, owners)
	if err != nil {
		return
	}
	r.broadcastMap(next)
	r.cmap.Store(next)
}

// retryAdopts re-drives adoption of unassigned shards after every probe
// pass: the honest map records them as nobody's, and this loop turns
// honesty back into coverage once a node can take them. Runs on the
// membership's probe goroutine (and from CheckNow's caller in tests).
func (r *Router) retryAdopts(live []cluster.Node) {
	if len(live) == 0 {
		return
	}
	r.pendingMu.Lock()
	due := make([]int, 0, len(r.pending))
	for s, grace := range r.pending {
		if grace > 0 {
			r.pending[s] = grace - 1
			continue
		}
		due = append(due, s)
	}
	r.pendingMu.Unlock()
	if len(due) == 0 {
		return
	}
	sort.Ints(due)

	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	m := r.cmap.Load()
	if m == nil {
		return
	}
	base, err := cluster.Compute(m.Version+1, live, r.shards)
	if err != nil {
		return
	}
	owners := m.OwnerNames()
	changed := false
	for _, s := range due {
		if owners[s] != "" {
			// Someone folded the shard back in since it was queued (a
			// rejoining owner reported it); nothing to adopt.
			r.clearPending(s)
			continue
		}
		target := base.Owner(s).Name
		if err := r.commandAdopt(target, s); err != nil {
			continue // still failing; the next pass retries
		}
		owners[s] = target
		r.clearPending(s)
		r.handoffs.Add(1)
		changed = true
	}
	if !changed {
		return
	}
	next, err := cluster.Assemble(m.Version+1, unionNodes(m.Nodes, live), r.shards, owners)
	if err != nil {
		return
	}
	r.broadcastMap(next)
	r.cmap.Store(next)
}

// unionNodes merges two node sets by name, preferring b's address (the
// fresher live set) on overlap.
func unionNodes(a, b []cluster.Node) []cluster.Node {
	byName := make(map[string]cluster.Node, len(a)+len(b))
	for _, n := range a {
		byName[n.Name] = n
	}
	for _, n := range b {
		byName[n.Name] = n
	}
	out := make([]cluster.Node, 0, len(byName))
	for _, n := range byName {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// commandAdopt tells a node to take over one shard from shared storage
// (crash takeover: snapshot + WAL tail replay).
func (r *Router) commandAdopt(node string, shard int) error {
	c := r.client(node)
	if c == nil {
		return fmt.Errorf("server: no client for node %q", node)
	}
	_, err := callAdopt(c, adoptReq{Shard: shard, Mode: adoptFromWAL})
	return err
}

// callAdopt sends one FrameAdopt and returns the canonical state bytes the
// node restored to.
func callAdopt(c *transport.Client, req adoptReq) ([]byte, error) {
	_, raw, err := c.Call(FrameAdopt, wal.Marshal(adoptReqFields, &req))
	if err != nil {
		return nil, err
	}
	var resp shardStateResp
	if err := wal.Unmarshal(shardStateRespFields, raw, "adopt response", &resp); err != nil {
		return nil, err
	}
	return resp.State, nil
}

// broadcastMap ships a map to every reachable node. A node that misses the
// update learns the version lag from forwarded publishes' map versions and
// the next broadcast; the router never blocks on a dead node here.
func (r *Router) broadcastMap(m *cluster.Map) {
	payload := m.Encode()
	for _, n := range m.Nodes {
		if c := r.client(n.Name); c != nil {
			_, _, _ = c.Call(FrameMapUpdate, payload)
		}
	}
}

// MoveShard performs a planned handoff: freeze the shard on its current
// owner, ship the snapshot bytes to the target over the transport, verify
// the restored state is bit-identical, and publish the updated map.
func (r *Router) MoveShard(shard int, target string) error {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	return r.moveShardLocked(shard, target)
}

// moveShardLocked is MoveShard under an already-held rebalanceMu (the
// join rebalance drives several moves in one critical section).
//
// Failure discipline: after a successful freeze the source no longer
// serves the shard, so every failure exit must put the state back
// somewhere real. An adopt failure — transport error, adopt rejection,
// decode error or state mismatch — rolls back by re-adopting the frozen
// snapshot on the source (whose slot recycles for exactly this), leaving
// the map untouched and the shard serving where it was. If even the
// rollback fails, the shard is recorded unassigned and queued for adopt
// retry; its state is safe in the source's WAL dir, which the
// adopt-from-WAL retry path restores from.
func (r *Router) moveShardLocked(shard int, target string) error {
	m := r.cmap.Load()
	if m == nil {
		return fmt.Errorf("server: router has no map yet")
	}
	if shard < 0 || shard >= r.shards {
		return fmt.Errorf("server: shard %d out of range [0,%d)", shard, r.shards)
	}
	src := m.Owner(shard)
	if src.Name == "" {
		return fmt.Errorf("server: shard %d has no owner to move from (awaiting adopt retry)", shard)
	}
	if src.Name == target {
		return nil
	}
	targetClient := r.client(target)
	if targetClient == nil {
		return fmt.Errorf("server: unknown target node %q", target)
	}
	next, err := m.WithOwner(m.Version+1, shard, target)
	if err != nil {
		return err
	}

	freeze := wal.Marshal(shardReqFields, &shardReq{Shard: shard})
	_, resp, err := r.client(src.Name).Call(FrameFreeze, freeze)
	if err != nil {
		// Nothing shipped; the source either still serves the shard or
		// rejected the freeze. The map is untouched either way.
		return fmt.Errorf("server: freezing shard %d on %s: %w", shard, src.Name, err)
	}
	var frozen frozenShard
	if err := wal.Unmarshal(frozenShardFields, resp, "freeze response", &frozen); err != nil {
		// The node replied non-error, so it did freeze; only the reply is
		// garbled. Roll back with whatever decoded — a corrupt snapshot
		// fails the source's CRC check and degrades to the unassigned +
		// retry path, which restores from the source's on-disk state.
		return r.failedMove(shard, src.Name, frozen.Snap, err)
	}

	adoptedState, err := callAdopt(targetClient, adoptReq{Shard: shard, Mode: adoptBytes, Snap: frozen.Snap})
	if err != nil {
		return r.failedMove(shard, src.Name, frozen.Snap, fmt.Errorf("server: adopting shard %d on %s: %w", shard, target, err))
	}
	if !bytes.Equal(adoptedState, frozen.State) {
		// Never publish ownership of state that is not bit-identical.
		// Freeze the target's divergent copy back out of service, then
		// restore the source.
		_, _, _ = targetClient.Call(FrameFreeze, freeze)
		return r.failedMove(shard, src.Name, frozen.Snap, fmt.Errorf("server: shard %d handoff state mismatch: source froze %d bytes, target restored %d bytes (not bit-identical)", shard, len(frozen.State), len(adoptedState)))
	}

	r.broadcastMap(next)
	r.cmap.Store(next)
	r.handoffs.Add(1)
	return nil
}

// failedMove rolls a failed planned handoff back onto the source: the
// frozen snapshot re-adopts into the slot it came from, so the shard
// keeps serving and the map needs no change. If the rollback itself
// fails, the shard is recorded unassigned — the honest state — and
// queued for adopt retry from the source's WAL dir.
func (r *Router) failedMove(shard int, src string, snap []byte, cause error) error {
	if c := r.client(src); c != nil {
		if _, err := callAdopt(c, adoptReq{Shard: shard, Mode: adoptBytes, Snap: snap}); err == nil {
			return fmt.Errorf("server: shard %d move failed, rolled back to %s: %w", shard, src, cause)
		}
	}
	m := r.cmap.Load()
	if m != nil {
		if next, err := m.WithoutOwner(m.Version+1, shard); err == nil {
			r.broadcastMap(next)
			r.cmap.Store(next)
		}
	}
	r.addPending(shard, 0)
	return fmt.Errorf("server: shard %d move failed (%v) and rollback to %s failed; shard unassigned, queued for adopt retry", shard, cause, src)
}

// ServeFrame implements transport.Handler: the router's own cluster
// listener, serving node join announces (plus ping, so joiners can
// health-check the coordinator before announcing).
func (r *Router) ServeFrame(typ byte, payload []byte) (byte, []byte, error) {
	switch typ {
	case FramePing:
		return FramePong, wal.Marshal(pongFields, &pong{Name: "router"}), nil
	case FrameJoin:
		var jr joinReq
		if err := wal.Unmarshal(joinReqFields, payload, "join request", &jr); err != nil {
			return 0, nil, err
		}
		resp := r.handleJoin(jr)
		return FrameJoinResp, wal.Marshal(joinRespFields, &resp), nil
	default:
		return 0, nil, fmt.Errorf("server: router: unknown frame type %d", typ)
	}
}

// handleJoin validates and admits one node announce (DESIGN.md §15). The
// checks guard the map's integrity: shard-count agreement (a joiner with
// a different shard space cannot host anything), a WAL dir (handoffs
// ship snapshots the node must persist), name/address uniqueness against
// the live set, and a dial-back ping proving the advertised address
// answers as the name it claims. Admission registers the peer, revives
// it in membership, folds in any ownership it already reports, and
// schedules the grow rebalance on its own goroutine — announces must not
// block behind snapshot shipping.
func (r *Router) handleJoin(jr joinReq) joinResp {
	ver := uint64(0)
	if m := r.cmap.Load(); m != nil {
		ver = m.Version
	}
	reject := func(format string, args ...any) joinResp {
		return joinResp{Status: joinRejected, MapVersion: ver, ErrText: fmt.Sprintf(format, args...)}
	}
	if jr.Name == "" || jr.Addr == "" {
		return reject("join needs a node name and address")
	}
	if jr.Shards != r.shards {
		return reject("cluster runs %d shards, joiner %q runs %d", r.shards, jr.Name, jr.Shards)
	}
	if jr.WALDir == "" {
		return reject("join requires a WAL dir: handoffs ship snapshots the node must persist")
	}
	ms := r.membership.Load()
	if ms == nil {
		return reject("router is not started")
	}
	for _, n := range ms.Live() {
		if n.Name == jr.Name && n.Addr == jr.Addr {
			// A live member announcing again: idempotent. Still nudge the
			// rebalance — a previous run may have been cut short by failed
			// moves, and re-driving a settled assignment is a no-op.
			r.scheduleRebalance(jr.Name)
			return joinResp{Status: joinAlreadyMember, MapVersion: ver}
		}
		if n.Name == jr.Name {
			return reject("node name %q is live at %s; refusing the ambiguous identity", jr.Name, n.Addr)
		}
		if n.Addr == jr.Addr {
			return reject("address %s already serves live node %q", jr.Addr, n.Name)
		}
	}

	// Dial back before admitting: the advertised address must answer a
	// ping as the name it claims, or the map would route shard traffic
	// into a black hole.
	probe := transport.NewClient(jr.Addr, r.cfg.Client)
	_, raw, err := probe.Call(FramePing, nil)
	probe.Close()
	if err != nil {
		return reject("joiner %q unreachable at %s: %v", jr.Name, jr.Addr, err)
	}
	var got pong
	if wal.Unmarshal(pongFields, raw, "pong", &got) != nil || got.Name != jr.Name {
		return reject("address %s answered ping as %q, not %q", jr.Addr, got.Name, jr.Name)
	}

	n := cluster.Node{Name: jr.Name, Addr: jr.Addr}
	r.registerPeer(n)
	ms.Admit(n)
	r.foldReportedOwnership(jr.Name)
	r.scheduleRebalance(jr.Name)
	return joinResp{Status: joinAccepted, MapVersion: ver}
}

// foldReportedOwnership asks a just-admitted node what it owns and
// records those claims for every shard the map holds unassigned: restart
// recovery leaves a post-seed joiner's shards unassigned until its
// announce arrives here. Claims that contradict a live assignment are
// ignored — the router's map is the coordination truth, and the loser
// learns its staleness from the next broadcast.
func (r *Router) foldReportedOwnership(name string) {
	c := r.client(name)
	if c == nil {
		return
	}
	_, raw, err := c.Call(FrameHealth, nil)
	if err != nil {
		return
	}
	var h nodeHealth
	if wal.Unmarshal(nodeHealthFields, raw, "health response", &h) != nil || len(h.Shards) == 0 {
		return
	}

	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	m := r.cmap.Load()
	if m == nil {
		return
	}
	owners := m.OwnerNames()
	changed := false
	for _, sr := range h.Shards {
		if sr.Shard >= r.shards || owners[sr.Shard] != "" {
			continue
		}
		owners[sr.Shard] = name
		changed = true
		r.clearPending(sr.Shard)
		r.lastRounds[sr.Shard].Store(int64(sr.Round))
	}
	if !changed {
		return
	}
	nodes := m.Nodes
	if m.NodeAddr(name) == "" {
		nodes = unionNodes(m.Nodes, []cluster.Node{{Name: name, Addr: c.Addr()}})
	}
	next, err := cluster.Assemble(m.Version+1, nodes, r.shards, owners)
	if err != nil {
		return
	}
	r.broadcastMap(next)
	r.cmap.Store(next)
}

// scheduleRebalance launches rebalanceOnto(name) once; repeat announces
// while one is in flight are dropped.
func (r *Router) scheduleRebalance(name string) {
	r.joiningMu.Lock()
	if r.joining[name] {
		r.joiningMu.Unlock()
		return
	}
	r.joining[name] = true
	r.joiningMu.Unlock()
	go r.rebalanceOnto(name)
}

// rebalanceOnto drives the grow rebalance for one admitted node: extend
// the map's membership, then move the joiner's consistent-hash share to
// it one byte-verified planned handoff at a time, each advancing the map
// version. A failed move leaves its shard serving on the source (or
// queued for adopt retry) and the loop simply continues; the next
// announce re-drives whatever is left.
func (r *Router) rebalanceOnto(name string) {
	defer func() {
		r.joiningMu.Lock()
		delete(r.joining, name)
		r.joiningMu.Unlock()
	}()

	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()

	m := r.cmap.Load()
	ms := r.membership.Load()
	if m == nil || ms == nil {
		return
	}
	target, err := m.Rebalance(m.Version+1, ms.Live())
	if err != nil {
		return
	}

	// Membership extension first, owners unchanged: every subsequent
	// WithOwner must be able to name the joiner.
	if m.NodeAddr(name) == "" {
		interim, err := cluster.Assemble(m.Version+1, target.Nodes, r.shards, m.OwnerNames())
		if err != nil {
			return
		}
		r.broadcastMap(interim)
		r.cmap.Store(interim)
	}

	for s := 0; s < r.shards; s++ {
		if target.Owner(s).Name != name {
			continue
		}
		cur := r.cmap.Load().Owner(s).Name
		if cur == name {
			continue
		}
		if cur == "" {
			// An unassigned orphan whose hash lands on the joiner: crash
			// adopt from shared storage, no source to freeze.
			if err := r.commandAdopt(name, s); err != nil {
				continue
			}
			mm := r.cmap.Load()
			next, err := mm.WithOwner(mm.Version+1, s, name)
			if err != nil {
				continue
			}
			r.broadcastMap(next)
			r.cmap.Store(next)
			r.clearPending(s)
			r.handoffs.Add(1)
			continue
		}
		// Planned, byte-verified move; failure rolls back to the source.
		_ = r.moveShardLocked(s, name)
	}
}

// RouterHealthResponse is the router's GET /healthz body: its own status
// plus one entry per node, aggregated live over the transport.
type RouterHealthResponse struct {
	Status     string `json:"status"`
	Role       string `json:"role"`
	MapVersion uint64 `json:"map_version"`
	Shards     int    `json:"shards"`
	// UnassignedShards lists shards the map honestly records as owned by
	// nobody (failed takeover adopts awaiting retry).
	UnassignedShards []int              `json:"unassigned_shards,omitempty"`
	Nodes            []RouterNodeHealth `json:"nodes"`
}

// RouterNodeHealth is one node's slice of the router's health report.
type RouterNodeHealth struct {
	Name        string   `json:"name"`
	Addr        string   `json:"addr"`
	Up          bool     `json:"up"`
	MapVersion  uint64   `json:"map_version,omitempty"`
	OwnedShards []int    `json:"owned_shards"`
	Rounds      []int    `json:"rounds"`
	Users       int      `json:"users"`
	QueueDepth  int      `json:"queue_depth"`
	Errors      []string `json:"errors,omitempty"`
}

// Handler returns the router's HTTP API — the same surface a standalone
// Server exposes, served by forwarding.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/publish", r.handlePublish)
	mux.HandleFunc("GET /v1/users/{id}/deliveries", r.handleDeliveries)
	mux.HandleFunc("POST /v1/tick", r.handleTick)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

func (r *Router) retrySeconds() int { return retryAfterSeconds(r.cfg.RetryAfter) }

// forwardPublish routes one recipient's publication to the owning node.
// The returned outcome folds transport failures into publishError so the
// caller only reasons about the four status codes.
func (r *Router) forwardPublish(topic pubsub.TopicID, user notif.UserID, item notif.Item) publishOutcome {
	m := r.cmap.Load()
	if m == nil {
		return publishOutcome{status: publishError, errText: "router has no shard map yet"}
	}
	shard := r.ring.shardFor(user)
	owner := m.Owner(shard)
	if owner.Name == "" {
		return publishOutcome{status: publishNotOwner, errText: fmt.Sprintf("shard %d is unassigned (takeover retry in progress)", shard)}
	}
	c := r.client(owner.Name)
	if c == nil || !r.isUp(owner.Name) {
		return publishOutcome{status: publishNotOwner, errText: fmt.Sprintf("node %s (shard %d) is down", owner.Name, shard)}
	}

	req := wal.Marshal(envelopeFields, &envelope{topic: topic, user: user, item: item})
	start := time.Now() //lint:allow wallclock forward latency measures real network round trips
	_, resp, err := c.Call(FramePublish, req)
	elapsed := time.Since(start) //lint:allow wallclock forward latency measures real network round trips
	r.latMu.Lock()
	r.fwdLatency.Add(elapsed.Seconds())
	r.latMu.Unlock()
	if err != nil {
		// Mark the node down immediately: until the prober's next pass
		// confirms either way, further publishes fail fast instead of each
		// eating a dial timeout. A successful probe flips it back up.
		r.setUp(owner.Name, false)
		return publishOutcome{status: publishError, errText: err.Error()}
	}
	r.countForward(owner.Name)
	var out publishOutcome
	d := wal.DecodeFrom(resp) // direct call: out stays on the stack, as in Node.ServeFrame
	publishOutcomeFields(&d, &out)
	if err := d.Finish("publish response"); err != nil {
		return publishOutcome{status: publishError, errText: err.Error()}
	}
	return out
}

func (r *Router) handlePublish(w http.ResponseWriter, req *http.Request) {
	var body PublishRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, "malformed publish request: "+err.Error())
		return
	}
	kind, err := parseTopicKind(body.Topic.Kind)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	recipients := body.Recipients
	if len(recipients) == 0 {
		if body.Item.Recipient == 0 {
			httpError(w, http.StatusBadRequest, "publish needs recipients or item.recipient")
			return
		}
		recipients = []notif.UserID{body.Item.Recipient}
	}
	if body.Item.Topic == 0 {
		body.Item.Topic = kind
	}
	if body.Item.CreatedAt.IsZero() {
		body.Item.CreatedAt = time.Now().UTC() //lint:allow wallclock ingest timestamps are real arrival times
	}
	topic := pubsub.TopicID{Kind: kind, Entity: body.Topic.Entity}

	var resp PublishResponse
	backpressured, unavailable := false, false
	retryAfter := 0
	for _, rcpt := range recipients {
		out := r.forwardPublish(topic, rcpt, body.Item)
		switch out.status {
		case publishAccepted:
			resp.Accepted++
		case publishBackpressure:
			resp.Rejected++
			backpressured = true
			if out.retryAfter > retryAfter {
				retryAfter = out.retryAfter
			}
		default: // not-owner (stale map / node down / unassigned) or error
			resp.Rejected++
			unavailable = true
		}
	}
	switch {
	case unavailable:
		// A map update is usually seconds away; tell the client when to retry.
		w.Header().Set("Retry-After", strconv.Itoa(r.retrySeconds()))
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case backpressured:
		if retryAfter < 1 {
			retryAfter = r.retrySeconds()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSON(w, http.StatusTooManyRequests, resp)
	default:
		writeJSON(w, http.StatusAccepted, resp)
	}
}

func (r *Router) handleDeliveries(w http.ResponseWriter, req *http.Request) {
	id, err := strconv.ParseInt(req.PathValue("id"), 10, 64)
	if err != nil || id <= 0 {
		httpError(w, http.StatusBadRequest, "bad user id")
		return
	}
	user := notif.UserID(id)
	m := r.cmap.Load()
	if m == nil {
		httpError(w, http.StatusServiceUnavailable, "router has no shard map yet")
		return
	}
	shard := r.ring.shardFor(user)
	owner := m.Owner(shard)
	if owner.Name == "" {
		w.Header().Set("Retry-After", strconv.Itoa(r.retrySeconds()))
		httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("shard %d is unassigned (takeover retry in progress)", shard))
		return
	}
	c := r.client(owner.Name)
	if c == nil {
		httpError(w, http.StatusServiceUnavailable, "owning node unknown")
		return
	}
	_, raw, err := c.Call(FrameDeliveries, wal.Marshal(deliveriesReqFields, &deliveriesReq{User: user}))
	if err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(r.retrySeconds()))
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var resp deliveriesResp
	if err := wal.Unmarshal(deliveriesRespFields, raw, "deliveries response", &resp); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !resp.Owned {
		// The node's map lags ours (or ours lags the truth). Retryable.
		w.Header().Set("Retry-After", strconv.Itoa(r.retrySeconds()))
		httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("node %s no longer owns user %d's shard", owner.Name, user))
		return
	}
	writeJSON(w, http.StatusOK, DeliveriesResponse{User: user, Deliveries: resp.Deliveries})
}

// RouterTickResponse is the router's POST /v1/tick body. Rounds is
// indexed by shard. Entries for nodes that could not tick hold the
// last-known rounds from the tick/health caches — not a zero that reads
// as "reset" — and Partial plus Errors say exactly which nodes were
// missed; a mid-fan-out failure no longer discards the ticks that
// already happened.
type RouterTickResponse struct {
	Rounds  []int    `json:"rounds"`
	Partial bool     `json:"partial,omitempty"`
	Errors  []string `json:"errors,omitempty"`
}

func (r *Router) handleTick(w http.ResponseWriter, req *http.Request) {
	m := r.cmap.Load()
	if m == nil {
		httpError(w, http.StatusServiceUnavailable, "router has no shard map yet")
		return
	}
	// Fan the tick out to every node in name order (deterministic),
	// splice the per-shard rounds into the standalone response shape, and
	// fill the gaps — dead nodes, unassigned shards, failed ticks — from
	// the last-known-round cache.
	resp := RouterTickResponse{Rounds: make([]int, r.shards)}
	for s := 0; s < r.shards; s++ {
		resp.Rounds[s] = int(r.lastRounds[s].Load())
	}
	for _, n := range m.Nodes {
		c := r.client(n.Name)
		if c == nil || !r.isUp(n.Name) {
			resp.Errors = append(resp.Errors, fmt.Sprintf("node %s down; its shards report last-known rounds", n.Name))
			continue
		}
		_, raw, err := c.Call(FrameTick, nil)
		if err != nil {
			r.setUp(n.Name, false)
			resp.Errors = append(resp.Errors, fmt.Sprintf("tick on node %s: %s", n.Name, err))
			continue
		}
		var ticked tickResp
		if err := wal.Unmarshal(tickRespFields, raw, "tick response", &ticked); err != nil {
			resp.Errors = append(resp.Errors, err.Error())
			continue
		}
		for _, sr := range ticked.Shards {
			if sr.Shard < r.shards {
				resp.Rounds[sr.Shard] = sr.Round
				r.lastRounds[sr.Shard].Store(int64(sr.Round))
			}
		}
	}
	resp.Partial = len(resp.Errors) > 0
	status := http.StatusOK
	if resp.Partial {
		// Partial results are still results; the 503 tells closed-loop
		// drivers this tick did not cover the whole shard space.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	m := r.cmap.Load()
	resp := RouterHealthResponse{
		Status: "ok",
		Role:   "router",
		Shards: r.shards,
	}
	if m != nil {
		resp.MapVersion = m.Version
		if un := m.Unassigned(); len(un) > 0 {
			resp.UnassignedShards = un
		}
	}
	anyUp := false
	for _, name := range r.peerNames() {
		c := r.client(name)
		if c == nil {
			continue
		}
		nh := RouterNodeHealth{
			Name:        name,
			Addr:        c.Addr(),
			OwnedShards: []int{},
			Rounds:      []int{},
		}
		if r.isUp(name) {
			if _, raw, err := c.Call(FrameHealth, nil); err == nil {
				var h nodeHealth
				if wal.Unmarshal(nodeHealthFields, raw, "health response", &h) == nil {
					nh.Up = true
					nh.MapVersion = h.MapVersion
					nh.Users = h.Users
					nh.QueueDepth = h.QueueDepth
					nh.Errors = h.Errs
					for _, sr := range h.Shards {
						nh.OwnedShards = append(nh.OwnedShards, sr.Shard)
						nh.Rounds = append(nh.Rounds, sr.Round)
						if sr.Shard < r.shards {
							r.lastRounds[sr.Shard].Store(int64(sr.Round))
						}
					}
				}
			}
		}
		anyUp = anyUp || nh.Up
		resp.Nodes = append(resp.Nodes, nh)
	}
	status := http.StatusOK
	if !anyUp {
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// forwardLatencyBounds are the router's forward-latency histogram buckets,
// spanning loopback microseconds to cross-zone worst cases.
var forwardLatencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	m := r.cmap.Load()

	// Aggregate node stats over the transport, merging reports and delay
	// histograms exactly as a standalone server merges its shards.
	var total metrics.Report
	var delay []metrics.Bucket
	if m != nil {
		for _, n := range m.Nodes {
			c := r.client(n.Name)
			if c == nil || !r.isUp(n.Name) {
				continue
			}
			_, raw, err := c.Call(FrameStats, nil)
			if err != nil {
				continue // a dead node's stats are simply absent this scrape
			}
			var st nodeStats
			if wal.Unmarshal(nodeStatsFields, raw, "stats response", &st) != nil {
				continue
			}
			total.Merge(st.Report)
			if merged, err := metrics.MergeBuckets(delay, st.DelayBuckets); err == nil {
				delay = merged
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := metrics.WriteExposition(w, total, delay); err != nil {
		return
	}
	r.writeRouterGauges(w, m)
}

// writeRouterGauges appends the router-tier series: per-node forwarding
// counters, transport health, the map version, coordinator progress and
// the forward-latency histogram.
func (r *Router) writeRouterGauges(w http.ResponseWriter, m *cluster.Map) {
	printf := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	names := r.peerNames()
	printf("# HELP richnote_router_forwarded_publishes_total Publish requests forwarded to each node.\n# TYPE richnote_router_forwarded_publishes_total counter\n")
	for _, name := range names {
		r.peerMu.RLock()
		fwd := r.forwarded[name]
		r.peerMu.RUnlock()
		if fwd != nil {
			printf("richnote_router_forwarded_publishes_total{node=%q} %d\n", name, fwd.Load())
		}
	}
	printf("# HELP richnote_router_transport_errors_total Transport-level failures (dial, write, read, corruption) per node client.\n# TYPE richnote_router_transport_errors_total counter\n")
	for _, name := range names {
		if c := r.client(name); c != nil {
			printf("richnote_router_transport_errors_total{node=%q} %d\n", name, c.Errors())
		}
	}
	printf("# HELP richnote_router_reconnects_total Re-dials after an established connection was lost, per node client.\n# TYPE richnote_router_reconnects_total counter\n")
	for _, name := range names {
		if c := r.client(name); c != nil {
			printf("richnote_router_reconnects_total{node=%q} %d\n", name, c.Reconnects())
		}
	}
	printf("# HELP richnote_router_node_up Last probe verdict per node (1 up, 0 down).\n# TYPE richnote_router_node_up gauge\n")
	for _, name := range names {
		up := 0
		if r.isUp(name) {
			up = 1
		}
		printf("richnote_router_node_up{node=%q} %d\n", name, up)
	}
	printf("# HELP richnote_cluster_map_version Version of the shard assignment map this router serves from.\n# TYPE richnote_cluster_map_version gauge\n")
	version := uint64(0)
	if m != nil {
		version = m.Version
	}
	printf("richnote_cluster_map_version %d\n", version)
	printf("# HELP richnote_cluster_unassigned_shards Shards the map records as owned by nobody, awaiting adopt retry.\n# TYPE richnote_cluster_unassigned_shards gauge\n")
	unassigned := 0
	if m != nil {
		unassigned = len(m.Unassigned())
	}
	printf("richnote_cluster_unassigned_shards %d\n", unassigned)
	printf("# HELP richnote_router_handoffs_total Shard reassignments commanded by this coordinator (crash takeovers + planned moves).\n# TYPE richnote_router_handoffs_total counter\n")
	printf("richnote_router_handoffs_total %d\n", r.handoffs.Load())

	r.latMu.Lock()
	buckets := r.fwdLatency.CumulativeBuckets(forwardLatencyBounds)
	count := r.fwdLatency.Count()
	sum := r.fwdLatency.Mean() * float64(count)
	r.latMu.Unlock()
	printf("# HELP richnote_router_forward_latency_seconds Round-trip latency of publish forwards to shard-owner nodes.\n# TYPE richnote_router_forward_latency_seconds histogram\n")
	for _, b := range buckets {
		printf("richnote_router_forward_latency_seconds_bucket{le=%q} %d\n", strconv.FormatFloat(b.UpperBound, 'g', -1, 64), b.Count)
	}
	printf("richnote_router_forward_latency_seconds_bucket{le=\"+Inf\"} %d\n", count)
	printf("richnote_router_forward_latency_seconds_sum %g\n", sum)
	printf("richnote_router_forward_latency_seconds_count %d\n", count)
}
