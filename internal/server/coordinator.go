package server

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"github.com/richnote/richnote/internal/cluster"
)

// coordinator is the router's control plane (DESIGN.md §13): one
// goroutine that exclusively owns the live set with its failure counts,
// the adopt-retry set with its grace counters, the peer registry and
// every map transition. Probe ticks, join announces, MoveShard requests,
// CheckNow and stop all arrive as events on one channel and run one at a
// time, so map versions advance linearly without a lock; after every
// event one reconcile pass drives the map toward its target and publish
// hands the data plane a fresh immutable view.
//
// The map never lies: ownership is published only after the owning node
// acknowledged the adopt, a failed takeover leaves the shard explicitly
// unassigned on the retry set, and a failed planned move rolls the shard
// back onto its source.
type coordinator struct {
	r      *Router
	events chan coordEvent // unbuffered: an accepted event will run
	done   chan struct{}   // closed when the loop has exited

	members *cluster.Membership // richnote:confined(coordinator)
	// pending is the adopt-retry set: shards the map honestly records as
	// unassigned, mapped to the number of probe passes left before the
	// shard may be crash-adopted onto its consistent-hash owner. Only a
	// probe pass counts it down, so no other event cuts a grace short.
	pending map[int]int      // richnote:confined(coordinator)
	peers   map[string]*peer // richnote:confined(coordinator)
}

// coordEvent is one unit of coordinator work. A nil run stops the coordinator.
type coordEvent struct {
	run  func()        // runs on the coordinator goroutine
	done chan struct{} // closed after run and the reconcile pass that follows it
}

const (
	// rejoinGracePasses is how many probe passes restart recovery waits
	// before force-adopting a shard nobody reported owning. The owner may
	// be a post-seed joiner the restarted router's seed list does not
	// know; its announce loop usually folds it back in well inside the
	// grace.
	rejoinGracePasses = 3
	// retryNextPass queues a shard whose adopt just failed for the next
	// probe pass.
	retryNextPass = 1
)

// start establishes the initial map and launches the loop. It runs on
// the caller's goroutine; the go statement hands the state over.
func (c *coordinator) start() error {
	if err := c.bootstrap(); err != nil {
		c.closePeers()
		return err
	}
	go c.loop()
	return nil
}

func (c *coordinator) loop() {
	defer close(c.done)
	//lint:allow wallclock health probing measures real elapsed time between peers
	t := time.NewTicker(c.r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.probe()
			c.reconcile()
		case ev := <-c.events:
			if ev.run == nil {
				// The transition in flight has committed or rolled back;
				// only now do the node connections go away.
				c.closePeers()
				close(ev.done)
				return
			}
			ev.run()
			c.reconcile()
			close(ev.done)
		}
	}
}

func (c *coordinator) closePeers() {
	for _, p := range c.peers {
		p.close()
	}
}

// submit hands fn to the coordinator goroutine. The returned channel
// closes once fn and the reconcile pass after it have finished; nil means
// the coordinator is not running (never started, or stopped) and fn will
// never run.
func (c *coordinator) submit(fn func()) <-chan struct{} {
	if c.r.view.Load() == nil {
		return nil
	}
	ev := coordEvent{run: fn, done: make(chan struct{})}
	select {
	case c.events <- ev:
		return ev.done
	case <-c.done:
		return nil
	}
}

// call is submit plus the wait; false means fn never ran.
func (c *coordinator) call(fn func()) bool {
	done := c.submit(fn)
	if done == nil {
		return false
	}
	<-done
	return true
}

// join answers one announce as soon as the node is admitted — before the
// reconcile pass that ships its share, so announces never wait behind
// snapshot shipping.
func (c *coordinator) join(jr joinReq) joinResp {
	answered := make(chan joinResp, 1)
	if c.submit(func() { answered <- c.admit(jr) }) == nil {
		return joinResp{Status: joinRejected, ErrText: "router is not running"}
	}
	return <-answered
}

// pendingShards is the ascending adopt-retry set.
func (c *coordinator) pendingShards() []int {
	shards := make([]int, 0, len(c.pending))
	for s := range c.pending {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	return shards
}

// bootstrap establishes the map Start publishes. It first asks every
// seed peer what it currently owns: a fresh cluster reports nothing and
// gets the consistent-hash assignment; any reported ownership means this
// router is restarting over a live cluster and must rebuild the map from
// the truth on the nodes — recomputing from seed placement would
// silently disown every post-seed move.
func (c *coordinator) bootstrap() error {
	cfg, shards := c.r.cfg, c.r.shards
	seeds := slices.Clone(cfg.Peers)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].Name < seeds[j].Name })

	// A conflict — two nodes claiming one shard, possible only if the
	// previous coordinator died mid-move — resolves to the first claimant
	// in name order; the loser's claim goes stale with the map broadcast.
	var reachable []cluster.Node
	owners := make([]string, shards)
	version, anyOwned := uint64(0), false
	for _, n := range seeds {
		h, err := c.peers[n.Name].health()
		if err != nil {
			c.peers[n.Name].up.Store(false)
			continue
		}
		reachable = append(reachable, n)
		version = max(version, h.MapVersion)
		for _, sr := range h.Shards {
			if sr.Shard >= shards {
				continue
			}
			anyOwned = true
			if owners[sr.Shard] == "" {
				owners[sr.Shard] = n.Name
			}
			c.r.lastRounds[sr.Shard].Store(int64(sr.Round))
		}
	}

	if !anyOwned {
		// Fresh cluster: version 1 over every seed peer, each adopting its
		// assigned shards from (empty) shared storage. A peer that cannot
		// take its assignment fails startup.
		m, err := cluster.Compute(1, seeds, shards)
		if err != nil {
			return err
		}
		for s := 0; s < shards; s++ {
			node := m.Owner(s).Name
			if _, err := c.peers[node].adopt(adoptReq{Shard: s, Mode: adoptFromWAL}); err != nil {
				return fmt.Errorf("server: initial assignment of shard %d to %s: %w", s, node, err)
			}
		}
		c.members = cluster.NewMembership(seeds, cfg.ProbeThreshold)
		c.publish(m)
		return nil
	}

	// Restart recovery: ownership is what the nodes report, at
	// max(reported version)+1, over the seeds that answered — one that did
	// not is not a member until it announces. Shards nobody reported stay
	// honestly unassigned behind a short grace: their owner may be a
	// post-seed joiner this router's seed list does not know about yet,
	// and its announce folds it back in (fold) before the grace expires in
	// the common case.
	m, err := cluster.Assemble(version+1, reachable, shards, owners)
	if err != nil {
		return fmt.Errorf("server: restart recovery: %w", err)
	}
	for s, owner := range owners {
		if owner == "" {
			c.pending[s] = rejoinGracePasses + 1 // sit the grace out, adopt on the pass after
		}
	}
	c.members = cluster.NewMembership(reachable, cfg.ProbeThreshold)
	c.publish(m)
	return nil
}

// publish is the one place a map becomes the truth: ship it to every node
// it names, then hand the data plane a fresh view. A node that misses the
// update learns the version lag from forwarded publishes' map versions
// and the next publish.
func (c *coordinator) publish(next *cluster.Map) {
	payload := next.Encode()
	for _, n := range next.Nodes {
		if p := c.peers[n.Name]; p != nil {
			_ = p.sendMap(payload)
		}
	}
	c.r.view.Store(&view{m: next, live: c.members.Live(), peers: maps.Clone(c.peers)})
}

// probe is one health pass over the live nodes: ping each, apply the
// death threshold, and count the adopt-retry graces down.
func (c *coordinator) probe() {
	failed := make(map[string]bool)
	for _, n := range c.members.Live() {
		p := c.peers[n.Name]
		_, err := p.ping()
		p.up.Store(err == nil)
		if err != nil {
			failed[n.Name] = true
		}
	}
	c.members.Observe(failed)
	for s, grace := range c.pending {
		if grace > 0 {
			c.pending[s] = grace - 1
		}
	}
}

// reconcile drives the map toward its target, Map.Rebalance over the live
// set, and runs after every event (DESIGN.md §13 has the table):
//
//   - a shard whose owner is dead or absent, once its grace has expired,
//     is crash-adopted from shared storage by its target — or, if the
//     target refuses, recorded honestly as unassigned and retried next
//     probe pass. However many shards that covers, it is one map version,
//     which also carries any change of the node set (a death, a joiner).
//   - a shard whose owner is alive but whose target differs is a joiner's
//     hash share and moves by planned, byte-verified handoff, one version
//     each; a failed move stays on its source.
func (c *coordinator) reconcile() {
	cur := c.r.view.Load().m
	live := c.members.Live()
	if len(live) == 0 {
		return // nothing to reassign to; requests 503 until a node announces
	}
	target, err := cur.Rebalance(cur.Version+1, live)
	if err != nil {
		return
	}
	alive := make(map[string]bool, len(live))
	for _, n := range live {
		alive[n.Name] = true
	}

	owners := cur.OwnerNames()
	changed := !slices.Equal(cur.Nodes, live)
	var moves []int
	for s, was := range owners {
		now := target.Owner(s).Name
		switch {
		case alive[was]:
			if now != was {
				moves = append(moves, s)
			}
		case was == "" && c.pending[s] > 0:
			// Unassigned and inside its grace: whoever owns it may yet announce.
		default:
			if _, err := c.peers[now].adopt(adoptReq{Shard: s, Mode: adoptFromWAL}); err != nil {
				// Honest failure beats a map that lies about ownership.
				owners[s] = ""
				c.pending[s] = retryNextPass
				changed = changed || was != ""
				continue
			}
			owners[s] = now
			delete(c.pending, s)
			c.r.handoffs.Add(1)
			changed = true
		}
	}
	if changed {
		next, err := cluster.Assemble(cur.Version+1, live, c.r.shards, owners)
		if err != nil {
			return
		}
		c.publish(next)
	}
	for _, s := range moves {
		_ = c.moveShard(s, target.Owner(s).Name)
	}
}

// moveShard is the one planned handoff: freeze the shard on its owner,
// ship the snapshot bytes to the target, verify the restored state is
// bit-identical, and publish the updated map.
//
// Failure discipline: after a successful freeze the source no longer
// serves the shard, so every failure exit must put the state back
// somewhere real. An adopt failure — transport error, adopt rejection,
// decode error or state mismatch — rolls back by re-adopting the frozen
// snapshot on the source (whose slot recycles for exactly this), leaving
// the map untouched and the shard serving where it was. If even the
// rollback fails, the shard is recorded unassigned and queued for adopt
// retry; its state is safe in the source's WAL dir, which the
// adopt-from-WAL path restores from.
func (c *coordinator) moveShard(shard int, target string) error {
	m := c.r.view.Load().m
	if shard < 0 || shard >= m.Shards {
		return fmt.Errorf("server: shard %d out of range [0,%d)", shard, m.Shards)
	}
	src := m.Owner(shard).Name
	if src == "" {
		return fmt.Errorf("server: shard %d has no owner to move from (awaiting adopt retry)", shard)
	}
	if src == target {
		return nil
	}
	from, to := c.peers[src], c.peers[target]
	if to == nil {
		return fmt.Errorf("server: unknown target node %q", target)
	}
	next, err := m.WithOwner(m.Version+1, shard, target)
	if err != nil {
		return err
	}

	frozen, froze, err := from.freeze(shard)
	if !froze {
		// Nothing shipped; the source either still serves the shard or
		// rejected the freeze. The map is untouched either way.
		return fmt.Errorf("server: freezing shard %d on %s: %w", shard, src, err)
	}
	// A garbled freeze reply (err != nil here) still froze the shard: roll
	// back with whatever decoded — a corrupt snapshot fails the source's
	// CRC check and degrades to unassigned + retry from its on-disk state.
	if err == nil {
		var restored []byte
		restored, err = to.adopt(adoptReq{Shard: shard, Mode: adoptBytes, Snap: frozen.Snap})
		switch {
		case err != nil:
			err = fmt.Errorf("server: adopting shard %d on %s: %w", shard, target, err)
		case !bytes.Equal(restored, frozen.State):
			// Never publish ownership of state that is not bit-identical.
			// Freeze the target's divergent copy back out of service, then
			// restore the source.
			_, _, _ = to.freeze(shard)
			err = fmt.Errorf("server: shard %d handoff state mismatch: source froze %d bytes, target restored %d bytes (not bit-identical)", shard, len(frozen.State), len(restored))
		default:
			c.publish(next)
			c.r.handoffs.Add(1)
			return nil
		}
	}

	if _, rerr := from.adopt(adoptReq{Shard: shard, Mode: adoptBytes, Snap: frozen.Snap}); rerr == nil {
		return fmt.Errorf("server: shard %d move failed, rolled back to %s: %w", shard, src, err)
	}
	if gap, werr := m.WithoutOwner(m.Version+1, shard); werr == nil {
		c.publish(gap)
	}
	c.pending[shard] = retryNextPass
	return fmt.Errorf("server: shard %d move failed (%v) and rollback to %s failed; shard unassigned, queued for adopt retry", shard, err, src)
}

// admit validates and admits one node announce (DESIGN.md §15). The
// checks guard the map's integrity: shard-count agreement (a joiner with
// a different shard space cannot host anything), a WAL dir (handoffs
// ship snapshots the node must persist), name/address uniqueness against
// the live set, and a dial-back ping proving the advertised address
// answers as the name it claims. Admission registers the peer, revives
// it in the live set and folds in any ownership it already reports; the
// reconcile pass after this event extends the map's membership and moves
// the joiner's share.
func (c *coordinator) admit(jr joinReq) joinResp {
	ver := c.r.view.Load().m.Version
	reject := func(format string, args ...any) joinResp {
		return joinResp{Status: joinRejected, MapVersion: ver, ErrText: fmt.Sprintf(format, args...)}
	}
	if jr.Name == "" || jr.Addr == "" {
		return reject("join needs a node name and address")
	}
	if jr.Shards != c.r.shards {
		return reject("cluster runs %d shards, joiner %q runs %d", c.r.shards, jr.Name, jr.Shards)
	}
	if jr.WALDir == "" {
		return reject("join requires a WAL dir: handoffs ship snapshots the node must persist")
	}
	for _, n := range c.members.Live() {
		switch {
		case n.Name == jr.Name && n.Addr == jr.Addr:
			// A live member announcing again: idempotent. The reconcile
			// pass after this event re-drives anything left undone.
			return joinResp{Status: joinAlreadyMember, MapVersion: ver}
		case n.Name == jr.Name:
			return reject("node name %q is live at %s; refusing the ambiguous identity", jr.Name, n.Addr)
		case n.Addr == jr.Addr:
			return reject("address %s already serves live node %q", jr.Addr, n.Name)
		}
	}

	// Dial back before admitting: the advertised address must answer a
	// ping as the name it claims, or the map would route shard traffic
	// into a black hole.
	n := cluster.Node{Name: jr.Name, Addr: jr.Addr}
	p := newPeer(n, c.r.cfg.Client)
	switch got, err := p.ping(); {
	case err != nil:
		p.close()
		return reject("joiner %q unreachable at %s: %v", jr.Name, jr.Addr, err)
	case got.Name != jr.Name:
		p.close()
		return reject("address %s answered ping as %q, not %q", jr.Addr, got.Name, jr.Name)
	}
	if known := c.peers[jr.Name]; known == nil {
		c.peers[jr.Name] = p
	} else {
		// A rejoining node usually comes back on a new port: the dial-back
		// client replaces the stale one, the counters carry over.
		known.client.Swap(p.client.Load()).Close()
		known.up.Store(true)
	}
	c.members.Admit(n)
	c.fold(jr.Name)
	return joinResp{Status: joinAccepted, MapVersion: ver}
}

// fold asks a just-admitted node what it owns and records those claims
// for every shard the map holds unassigned: restart recovery leaves a
// post-seed joiner's shards unassigned until its announce arrives here.
// Claims that contradict an assignment are ignored — the router's map is
// the coordination truth, and the loser learns its staleness from the
// next publish.
func (c *coordinator) fold(name string) {
	h, err := c.peers[name].health()
	if err != nil {
		return
	}
	cur := c.r.view.Load().m
	owners := cur.OwnerNames()
	changed := false
	for _, sr := range h.Shards {
		if sr.Shard >= c.r.shards || owners[sr.Shard] != "" {
			continue
		}
		owners[sr.Shard] = name
		delete(c.pending, sr.Shard)
		c.r.lastRounds[sr.Shard].Store(int64(sr.Round))
		changed = true
	}
	if !changed {
		return
	}
	next, err := cluster.Assemble(cur.Version+1, c.members.Live(), c.r.shards, owners)
	if err != nil {
		return
	}
	c.publish(next)
}
