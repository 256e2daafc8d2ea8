package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/wal"
)

// clusterNodeConfig is testConfig with durability on and no initial shard
// ownership — the router's coordinator assigns shards after startup, the
// way `richnote-serve -role=node` boots.
func clusterNodeConfig(shards int, walDir string) Config {
	cfg := testConfig(shards)
	cfg.WALDir = walDir
	cfg.WALFsync = wal.SyncAlways
	cfg.OwnedShards = []int{}
	return cfg
}

// testCluster is an in-process cluster: shard-owner nodes over real TCP
// transports plus a router, sharing one WAL directory (the shared-storage
// model crash takeover assumes).
type testCluster struct {
	router  *Router
	servers map[string]*Server
	nodes   map[string]*Node
	front   *httptest.Server
}

// startCluster boots named nodes and a router over them. Probing is manual
// (CheckNow) so tests control exactly when deaths are noticed.
func startCluster(t *testing.T, shards int, walDir string, names ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		servers: make(map[string]*Server, len(names)),
		nodes:   make(map[string]*Node, len(names)),
	}
	var peers []cluster.Node
	for _, name := range names {
		s, err := New(clusterNodeConfig(shards, walDir))
		if err != nil {
			t.Fatalf("New node %s: %v", name, err)
		}
		if err := s.Start(); err != nil {
			t.Fatalf("Start node %s: %v", name, err)
		}
		s.SetRole("node")
		n := NewNode(name, s)
		if err := n.Serve("127.0.0.1:0"); err != nil {
			t.Fatalf("Serve node %s: %v", name, err)
		}
		tc.servers[name] = s
		tc.nodes[name] = n
		peers = append(peers, cluster.Node{Name: name, Addr: n.Addr()})
	}
	r, err := NewRouter(RouterConfig{
		Shards:        shards,
		Peers:         peers,
		Listen:        "127.0.0.1:0", // join announces, ephemeral port
		ProbeInterval: time.Hour,     // tests drive probes via CheckNow
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("router Start: %v", err)
	}
	tc.router = r
	tc.front = httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		r.Stop()
		for _, n := range tc.nodes {
			_ = n.Close()
		}
		for _, s := range tc.servers {
			s.CrashStop()
		}
	})
	return tc
}

// publishVia posts one publication through the router and returns the
// response status code.
func publishVia(t *testing.T, base string, user notif.UserID, id int) int {
	t.Helper()
	var req PublishRequest
	req.Topic.Kind = "friend-feed"
	req.Topic.Entity = 1
	req.Recipients = []notif.UserID{user}
	req.Item = audioItem(id, 99)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/publish", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("publish via router: %v", err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// userOnShard finds a user id the server's ring maps to the given shard.
// The user ring is plain FNV, so small scans can miss a shard entirely.
func userOnShard(t *testing.T, s *Server, shard int) notif.UserID {
	t.Helper()
	for u := 1; u <= 1_000_000; u++ {
		if s.ShardFor(notif.UserID(u)) == shard {
			return notif.UserID(u)
		}
	}
	t.Fatalf("no user in 1..1e6 maps to shard %d", shard)
	return 0
}

// drainCluster ticks through the router until every node's queues empty.
func drainCluster(t *testing.T, tc *testCluster) {
	t.Helper()
	for i := 0; i < 200; i++ {
		httpTick(t, tc.front.URL)
		depth := 0
		for _, s := range tc.servers {
			for _, snap := range s.Snapshots() {
				depth += snap.QueueDepth + snap.BrokerPending
			}
		}
		if depth == 0 {
			return
		}
	}
	t.Fatal("cluster queues never drained")
}

// TestClusterRouterEndToEnd drives the full multi-node data path: the
// router assigns the shard space across two nodes, forwards a closed-loop
// HTTP workload over the binary transport, aggregates health and metrics,
// and the usual conservation invariant holds across node boundaries.
func TestClusterRouterEndToEnd(t *testing.T) {
	tc := startCluster(t, 4, t.TempDir(), "a", "b")

	m := tc.router.Map()
	if m == nil || m.Version != 1 {
		t.Fatalf("router map version = %v, want 1", m)
	}
	if got := len(m.OwnedBy("a")) + len(m.OwnedBy("b")); got != 4 {
		t.Fatalf("nodes own %d shards between them, want 4", got)
	}
	for name, s := range tc.servers {
		if want := m.OwnedBy(name); len(s.OwnedShardIDs()) != len(want) {
			t.Errorf("node %s owns %v, map says %v", name, s.OwnedShardIDs(), want)
		}
	}

	res := runLoad(context.Background(), loadOpts{
		url: tc.front.URL, events: 120, workers: 4, users: 12, seed: 7, tickEvery: 25,
	})
	if res.accepted != 120 {
		t.Fatalf("accepted %d of 120 events: %+v", res.accepted, res)
	}
	drainCluster(t, tc)

	// Conservation must hold over the union of both nodes' shards.
	var arrived, delivered, dropped int
	for _, s := range tc.servers {
		for _, snap := range s.Snapshots() {
			arrived += snap.Report.Arrived
			delivered += snap.Report.Delivered
			dropped += snap.Report.Dropped
		}
	}
	if arrived == 0 || arrived != delivered+dropped {
		t.Errorf("conservation violated across nodes: arrived %d != delivered %d + dropped %d",
			arrived, delivered, dropped)
	}

	// Deliveries are reachable for every user through the router.
	total := 0
	for u := 1; u <= 12; u++ {
		var dr DeliveriesResponse
		if err := json.Unmarshal([]byte(httpGet(t, tc.front.URL+"/v1/users/"+strconv.Itoa(u)+"/deliveries")), &dr); err != nil {
			t.Fatalf("deliveries user %d: %v", u, err)
		}
		total += len(dr.Deliveries)
	}
	if total == 0 {
		t.Error("no deliveries visible through the router")
	}

	// Aggregated health: router role, both nodes up, full shard coverage.
	var hr RouterHealthResponse
	if err := json.Unmarshal([]byte(httpGet(t, tc.front.URL+"/healthz")), &hr); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hr.Role != "router" || hr.Status != "ok" {
		t.Errorf("healthz role/status = %s/%s, want router/ok", hr.Role, hr.Status)
	}
	covered := 0
	for _, nh := range hr.Nodes {
		if !nh.Up {
			t.Errorf("node %s reported down", nh.Name)
		}
		covered += len(nh.OwnedShards)
	}
	if covered != 4 {
		t.Errorf("healthz covers %d shards, want 4", covered)
	}

	// Aggregated metrics carry both the merged simulation report and the
	// router-tier series.
	body := httpGet(t, tc.front.URL+"/metrics")
	for _, metric := range []string{
		"richnote_notifications_arrived_total",
		"richnote_delivery_delay_rounds_bucket",
		"richnote_router_forwarded_publishes_total",
		"richnote_router_transport_errors_total",
		"richnote_router_reconnects_total",
		"richnote_router_node_up",
		"richnote_cluster_map_version 1",
		"richnote_router_forward_latency_seconds_bucket",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("router metrics missing %s", metric)
		}
	}
}

// TestClusterPlannedHandoffBitIdentical exercises the freeze → ship bytes →
// restore path: after real load, a shard moves between live nodes and the
// restored state must be byte-identical to the frozen one (MoveShard
// verifies this internally and fails otherwise); ownership, the map
// version, and the publish path all follow the move.
func TestClusterPlannedHandoffBitIdentical(t *testing.T) {
	tc := startCluster(t, 4, t.TempDir(), "a", "b")

	for i := 0; i < 60; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%12+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
		if i%20 == 19 {
			httpTick(t, tc.front.URL)
		}
	}

	m := tc.router.Map()
	owned := m.OwnedBy("a")
	if len(owned) == 0 {
		t.Fatal("node a owns nothing; cannot test handoff")
	}
	shard := owned[0]

	if err := tc.router.MoveShard(shard, "b"); err != nil {
		t.Fatalf("MoveShard(%d, b): %v", shard, err)
	}

	next := tc.router.Map()
	if next.Version != m.Version+1 {
		t.Errorf("map version %d after move, want %d", next.Version, m.Version+1)
	}
	if got := next.Owner(shard).Name; got != "b" {
		t.Errorf("shard %d owner = %s, want b", shard, got)
	}
	if tc.servers["a"].Owns(shard) {
		t.Error("source still owns the shard after handoff")
	}
	if !tc.servers["b"].Owns(shard) {
		t.Error("target does not own the shard after handoff")
	}
	if len(tc.servers["b"].AdoptedState(shard)) == 0 {
		t.Error("target recorded no adopted state")
	}

	// The source now refuses the shard's users; the router routes to the
	// new owner and publishes keep flowing.
	user := userOnShard(t, tc.servers["a"], shard)
	if err := tc.servers["a"].Publish(friendTopic(1), user, audioItem(9001, 99)); err != ErrNotOwner {
		t.Errorf("source Publish after handoff = %v, want ErrNotOwner", err)
	}
	if code := publishVia(t, tc.front.URL, user, 9002); code != http.StatusAccepted {
		t.Errorf("publish via router after handoff: status %d", code)
	}
	httpTick(t, tc.front.URL)

	// Moving a shard to its current owner is a no-op, not an error.
	if err := tc.router.MoveShard(shard, "b"); err != nil {
		t.Errorf("MoveShard to current owner: %v", err)
	}
}

// TestClusterCrashTakeoverByteIdentical is the crash half of the handoff
// story: a node dies mid-run (kill -9 emulation), the router's probes
// notice, the survivor adopts the orphaned shards from shared storage, and
// the adopted state is byte-identical to what the dead node held — the WAL
// was fsynced, so nothing is lost.
func TestClusterCrashTakeoverByteIdentical(t *testing.T) {
	tc := startCluster(t, 4, t.TempDir(), "a", "b")

	for i := 0; i < 60; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%12+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
		if i%20 == 19 {
			httpTick(t, tc.front.URL)
		}
	}

	m := tc.router.Map()
	victim := m.OwnedBy("a")
	if len(victim) == 0 {
		t.Fatal("node a owns nothing; cannot test takeover")
	}

	// Kill node a: goroutines stop without draining, transport goes dark.
	sa := tc.servers["a"]
	sa.CrashStop()
	want := make(map[int][]byte, len(victim))
	for _, id := range victim {
		want[id] = sa.shards[id].stateBytes()
	}
	_ = tc.nodes["a"].Close()

	// Two failed probes cross the death threshold and trigger the
	// coordinator: recompute, adopt, broadcast.
	tc.router.CheckNow()
	tc.router.CheckNow()

	next := tc.router.Map()
	if next.Version != m.Version+1 {
		t.Fatalf("map version %d after death, want %d", next.Version, m.Version+1)
	}
	if got := len(next.OwnedBy("b")); got != 4 {
		t.Fatalf("survivor owns %d shards, want all 4", got)
	}
	if tc.router.Handoffs() == 0 {
		t.Error("coordinator recorded no handoffs")
	}

	sb := tc.servers["b"]
	for _, id := range victim {
		got := sb.AdoptedState(id)
		if len(got) == 0 {
			t.Errorf("shard %d: survivor has no adopted state", id)
			continue
		}
		if !bytes.Equal(got, want[id]) {
			t.Errorf("shard %d: adopted state differs from crashed node's (%d vs %d bytes)",
				id, len(got), len(want[id]))
		}
	}

	// The cluster serves again: publishes to the dead node's users land on
	// the survivor, rounds advance, conservation holds.
	user := userOnShard(t, sb, victim[0])
	if code := publishVia(t, tc.front.URL, user, 9100); code != http.StatusAccepted {
		t.Errorf("publish after takeover: status %d", code)
	}
	httpTick(t, tc.front.URL)

	var hr RouterHealthResponse
	if err := json.Unmarshal([]byte(httpGet(t, tc.front.URL+"/healthz")), &hr); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	for _, nh := range hr.Nodes {
		if nh.Name == "a" && nh.Up {
			t.Error("dead node still reported up")
		}
		if nh.Name == "b" && !nh.Up {
			t.Error("survivor reported down")
		}
	}
}

// TestClusterBackpressurePropagates pins the end-to-end 429 and 503 paths:
// a node's ErrBackpressure surfaces at the router as 429 + Retry-After,
// and a dead node surfaces as 503 + Retry-After.
func TestClusterBackpressurePropagates(t *testing.T) {
	walDir := t.TempDir()
	cfg := clusterNodeConfig(1, walDir)
	cfg.IngestBuffer = 4
	cfg.HighWater = 1
	// Own the shard from boot but never start its goroutine, so ingest
	// only fills (the same trick TestBackpressure uses) — the router's
	// adopt command no-ops on an already-owned shard.
	cfg.OwnedShards = nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode("a", s)
	if err := n.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{
		Shards:        1,
		Peers:         []cluster.Node{{Name: "a", Addr: n.Addr()}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		front.Close()
		r.Stop()
		_ = n.Close()
		s.CrashStop()
	})

	// No ticks drain the ingest queue, so the second publish finds it at
	// the high-water mark and must come back 429 with Retry-After.
	saw429 := false
	for i := 0; i < 10 && !saw429; i++ {
		var req PublishRequest
		req.Topic.Kind = "friend-feed"
		req.Topic.Entity = 1
		req.Recipients = []notif.UserID{1}
		req.Item = audioItem(i+1, 2)
		body, _ := json.Marshal(req)
		resp, err := http.Post(front.URL+"/v1/publish", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if want := i < cfg.HighWater; (resp.StatusCode == http.StatusAccepted) != want {
			t.Errorf("publish %d: status %d, want the first %d accepted and the next refused", i+1, resp.StatusCode, cfg.HighWater)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Error("backpressure never propagated as 429")
	}

	// Kill the node's transport: one probe marks it down, and publishes
	// turn into retryable 503s.
	_ = n.Close()
	r.CheckNow()
	var req PublishRequest
	req.Topic.Kind = "friend-feed"
	req.Topic.Entity = 1
	req.Recipients = []notif.UserID{1}
	req.Item = audioItem(999, 2)
	body, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/publish", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("publish to dead node: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestStandaloneClusterFieldsDefault pins the standalone healthz shape the
// cluster fields extended: role standalone, map version 0, every shard
// owned — bit-compatible with single-process deployments.
func TestStandaloneClusterFieldsDefault(t *testing.T) {
	s := startServer(t, testConfig(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var hr HealthResponse
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/healthz")), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Role != "standalone" {
		t.Errorf("role = %q, want standalone", hr.Role)
	}
	if hr.MapVersion != 0 {
		t.Errorf("map_version = %d, want 0", hr.MapVersion)
	}
	if len(hr.OwnedShards) != 2 {
		t.Errorf("owned_shards = %v, want both", hr.OwnedShards)
	}
}

// TestRouterDuplicateAddrRejected pins the S4 fix: two peers sharing an
// address would make the probe's address→name resolution ambiguous, so
// construction refuses it.
func TestRouterDuplicateAddrRejected(t *testing.T) {
	_, err := NewRouter(RouterConfig{
		Shards: 2,
		Peers: []cluster.Node{
			{Name: "a", Addr: "127.0.0.1:9000"},
			{Name: "b", Addr: "127.0.0.1:9000"},
		},
	})
	if err == nil {
		t.Fatal("duplicate peer address accepted")
	}
}

// TestClusterMoveRollbackOnFailedAdopt pins the S1 fix: a planned move
// whose adopt fails mid-flight must roll the shard back onto its source —
// before the fix the source had already frozen the shard and the move
// returned, leaving it serving nobody until a process restart.
func TestClusterMoveRollbackOnFailedAdopt(t *testing.T) {
	tc := startCluster(t, 4, t.TempDir(), "a", "b")

	for i := 0; i < 40; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%12+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
		if i%20 == 19 {
			httpTick(t, tc.front.URL)
		}
	}

	m := tc.router.Map()
	owned := m.OwnedBy("a")
	if len(owned) == 0 {
		t.Fatal("node a owns nothing")
	}
	shard := owned[0]

	// Wedge the target: crash b's server but keep its transport answering,
	// so the freeze succeeds, the probe keeps passing, and only the adopt
	// fails ("server not running").
	tc.servers["b"].CrashStop()

	err := tc.router.MoveShard(shard, "b")
	if err == nil {
		t.Fatal("MoveShard onto a crashed server succeeded")
	}

	// The shard must still serve on the source with the map untouched.
	if got := tc.router.Map().Version; got != m.Version {
		t.Errorf("map version changed to %d on a rolled-back move, want %d", got, m.Version)
	}
	if got := tc.router.Map().Owner(shard).Name; got != "a" {
		t.Errorf("shard %d owner = %q after rollback, want a", shard, got)
	}
	if !tc.servers["a"].Owns(shard) {
		t.Fatal("source does not own the shard after rollback: wedged")
	}
	if len(tc.servers["a"].AdoptedState(shard)) == 0 {
		t.Error("rollback did not record adopted state on the source")
	}
	if got := tc.router.Pending(); len(got) != 0 {
		t.Errorf("successful rollback left shards pending: %v", got)
	}

	// Publishes to the shard's users keep landing.
	user := userOnShard(t, tc.servers["a"], shard)
	if code := publishVia(t, tc.front.URL, user, 9001); code != http.StatusAccepted {
		t.Errorf("publish after rollback: status %d, want 202", code)
	}
}

// TestClusterTakeoverMapDoesNotLie pins the S2 fix: when a crash
// takeover's adopt fails, the map must record the shard as unassigned
// and queue a retry — before the fix it broadcast the recomputed map
// anyway, claiming ownership the target had refused, and the shard's
// requests bounced off ErrNotOwner forever.
//
// Placement at 8 shards is pinned by the hash: a owns {0,2,5}; when a
// dies its shards rebalance 0,2→b and 5→c.
func TestClusterTakeoverMapDoesNotLie(t *testing.T) {
	tc := startCluster(t, 8, t.TempDir(), "a", "b", "c")

	for i := 0; i < 40; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%24+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
		if i%20 == 19 {
			httpTick(t, tc.front.URL)
		}
	}
	m := tc.router.Map()
	if got := m.OwnedBy("a"); !equalInts(got, []int{0, 2, 5}) {
		t.Fatalf("placement drifted: a owns %v, test assumes [0 2 5]", got)
	}

	// Wedge c (crashed server, live transport) and kill a outright.
	tc.servers["c"].CrashStop()
	tc.servers["a"].CrashStop()
	_ = tc.nodes["a"].Close()
	tc.router.CheckNow()
	tc.router.CheckNow() // threshold 2: a is now dead

	// Shards 0,2 adopt onto b; shard 5's adopt onto c fails, so the map
	// must say "nobody" — not "c".
	next := tc.router.Map()
	if next.Version <= m.Version {
		t.Fatalf("map version %d after takeover, want > %d", next.Version, m.Version)
	}
	if got := next.Unassigned(); !equalInts(got, []int{5}) {
		t.Fatalf("Unassigned = %v, want [5]", got)
	}
	if next.Owner(5).Name != "" {
		t.Fatalf("map claims %q owns shard 5, whose adopt failed", next.Owner(5).Name)
	}
	if got := tc.router.Pending(); !equalInts(got, []int{5}) {
		t.Fatalf("Pending = %v, want [5]", got)
	}
	for _, s := range []int{0, 2} {
		if next.Owner(s).Name != "b" || !tc.servers["b"].Owns(s) {
			t.Errorf("shard %d not adopted by b (map says %q)", s, next.Owner(s).Name)
		}
	}

	// The router is honest outward too: healthz lists the gap, and the
	// unassigned shard's users get a retryable 503, not silent loss.
	if body := httpGet(t, tc.front.URL+"/healthz"); !strings.Contains(body, "\"unassigned_shards\":[5]") {
		t.Errorf("healthz does not report the unassigned shard: %s", body)
	}
	user := userOnShard(t, tc.servers["b"], 5)
	var req PublishRequest
	req.Topic.Kind = "friend-feed"
	req.Topic.Entity = 1
	req.Recipients = []notif.UserID{user}
	req.Item = audioItem(9100, 99)
	body, _ := json.Marshal(req)
	resp, err := http.Post(tc.front.URL+"/v1/publish", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("publish to unassigned shard: status %d, want 503", resp.StatusCode)
	}

	// Heal: once c's transport dies too, the next probe passes rehash the
	// whole space onto b — including the pending shard, whose state adopts
	// from the shared WAL dir with nothing lost.
	_ = tc.nodes["c"].Close()
	tc.router.CheckNow()
	tc.router.CheckNow()
	final := tc.router.Map()
	if got := len(final.OwnedBy("b")); got != 8 {
		t.Fatalf("survivor owns %d of 8 shards after heal", got)
	}
	if got := tc.router.Pending(); len(got) != 0 {
		t.Fatalf("Pending = %v after heal, want empty", got)
	}
	if code := publishVia(t, tc.front.URL, user, 9101); code != http.StatusAccepted {
		t.Errorf("publish after heal: status %d, want 202", code)
	}
}

// TestRouterTickPartial pins the S5 fix (a tick with a dead node returns
// the partial results honestly, with last-known rounds for the dead
// node's shards) and the S3 fix (a forward-path transport error marks
// the node down immediately).
func TestRouterTickPartial(t *testing.T) {
	tc := startCluster(t, 4, t.TempDir(), "a", "b")

	for i := 0; i < 20; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%12+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
	}
	httpTick(t, tc.front.URL) // every shard reaches round 1; rounds cached

	bShards := tc.router.Map().OwnedBy("b")
	if len(bShards) == 0 {
		t.Fatal("node b owns nothing")
	}
	bUser := userOnShard(t, tc.servers["b"], bShards[0])

	// Kill b without letting the prober notice.
	tc.servers["b"].CrashStop()
	_ = tc.nodes["b"].Close()

	// S3: the failed forward itself must flip the node down — before the
	// fix only the prober did, so every publish in a probe interval ate a
	// fresh dial timeout.
	if code := publishVia(t, tc.front.URL, bUser, 9200); code != http.StatusServiceUnavailable {
		t.Fatalf("publish to killed node: status %d, want 503", code)
	}
	if tc.router.view.Load().peers["b"].up.Load() {
		t.Fatal("transport error on the forward path did not mark the node down")
	}

	// S5: the tick covers a, reports b's shards at their last-known round,
	// and says exactly what it missed.
	resp, err := http.Post(tc.front.URL+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("partial tick status = %d, want 503", resp.StatusCode)
	}
	var tr RouterTickResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Partial || len(tr.Errors) == 0 {
		t.Errorf("partial tick reported partial=%t errors=%v", tr.Partial, tr.Errors)
	}
	if len(tr.Rounds) != 4 {
		t.Fatalf("rounds = %v, want 4 entries", tr.Rounds)
	}
	for _, s := range tc.router.Map().OwnedBy("a") {
		if tr.Rounds[s] != 2 {
			t.Errorf("live shard %d at round %d, want 2 (it ticked)", s, tr.Rounds[s])
		}
	}
	for _, s := range bShards {
		if tr.Rounds[s] != 1 {
			t.Errorf("dead shard %d reports round %d, want last-known 1", s, tr.Rounds[s])
		}
	}
}

// TestClusterRouterRestartRecovery pins the coordinator-restart story: a
// new router over the same peers must rebuild the map from what the
// nodes actually own — recomputing from seed placement would silently
// disown every post-seed move.
func TestClusterRouterRestartRecovery(t *testing.T) {
	walDir := t.TempDir()
	tc := startCluster(t, 4, walDir, "a", "b")

	for i := 0; i < 40; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%12+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
		if i%20 == 19 {
			httpTick(t, tc.front.URL)
		}
	}

	// Diverge from seed placement with one planned move.
	m := tc.router.Map()
	owned := m.OwnedBy("a")
	if len(owned) == 0 {
		t.Fatal("node a owns nothing")
	}
	moved := owned[0]
	if err := tc.router.MoveShard(moved, "b"); err != nil {
		t.Fatalf("MoveShard: %v", err)
	}
	oldVersion := tc.router.Map().Version

	// The router dies; a replacement starts over the same seed peers.
	tc.router.Stop()
	var peers []cluster.Node
	for name, n := range tc.nodes {
		peers = append(peers, cluster.Node{Name: name, Addr: n.Addr()})
	}
	r2, err := NewRouter(RouterConfig{
		Shards:        4,
		Peers:         peers,
		Listen:        "127.0.0.1:0",
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Start(); err != nil {
		t.Fatalf("restarted router Start: %v", err)
	}
	front2 := httptest.NewServer(r2.Handler())
	t.Cleanup(func() {
		front2.Close()
		r2.Stop()
	})

	// Recovery must adopt the nodes' truth: the moved shard stays on b,
	// the version moves strictly forward, nothing is re-adopted.
	rm := r2.Map()
	if rm.Version <= oldVersion {
		t.Errorf("recovered map version %d, want > %d", rm.Version, oldVersion)
	}
	if got := rm.Owner(moved).Name; got != "b" {
		t.Errorf("recovered map says %q owns the moved shard, want b (seed recompute would say a)", got)
	}
	if len(rm.Unassigned()) != 0 {
		t.Errorf("recovery left shards unassigned: %v", rm.Unassigned())
	}
	if tc.servers["a"].Owns(moved) {
		t.Error("recovery disturbed node ownership: a re-owns the moved shard")
	}

	// The new front serves immediately.
	user := userOnShard(t, tc.servers["b"], moved)
	if code := publishVia(t, front2.URL, user, 9300); code != http.StatusAccepted {
		t.Errorf("publish through restarted router: status %d", code)
	}

	// ---- Grace holds through a death. A third node joins and takes its
	// hash share; the router restarts again over the same two seeds, so the
	// joiner's shards are unassigned inside their grace until it announces.
	// A seed dying in that window must not get them crash-adopted from the
	// WAL — the joiner is alive and appending to it.
	sc, nc := startJoiner(t, 4, walDir, "c")
	if resp := announceTo(t, r2.ClusterAddr(), nc, walDir); resp.Status != joinAccepted {
		t.Fatalf("join: status %d: %s", resp.Status, resp.ErrText)
	}
	r2.Pending() // barrier: the rebalance behind the join has finished
	cShards := r2.Map().OwnedBy("c")
	if len(cShards) == 0 {
		t.Fatal("placement drifted: the joiner's hash share is empty, test assumes it is not")
	}
	bShards := r2.Map().OwnedBy("b")

	r2.Stop()
	r3, err := NewRouter(RouterConfig{
		Shards:        4,
		Peers:         peers,
		Listen:        "127.0.0.1:0",
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.Start(); err != nil {
		t.Fatalf("second restarted router Start: %v", err)
	}
	t.Cleanup(r3.Stop)
	if got := r3.Map().Unassigned(); !equalInts(got, cShards) {
		t.Fatalf("recovery over the seeds left %v unassigned, want the joiner's %v", got, cShards)
	}

	// Kill seed b before c's first announce; two passes cross the threshold.
	tc.servers["b"].CrashStop()
	_ = tc.nodes["b"].Close()
	r3.CheckNow()
	r3.CheckNow()
	dm := r3.Map()
	if len(r3.Live()) != 1 || dm.NodeAddr("b") != "" {
		t.Fatalf("b not declared dead: live %v, map nodes %v", r3.Live(), dm.Nodes)
	}
	for _, s := range bShards {
		if dm.Owner(s).Name != "a" || !tc.servers["a"].Owns(s) {
			t.Errorf("dead b's shard %d not taken over by a (map says %q)", s, dm.Owner(s).Name)
		}
	}
	if got := dm.Unassigned(); !equalInts(got, cShards) {
		t.Errorf("after the death Unassigned = %v, want the joiner's %v still waiting", got, cShards)
	}
	if got := r3.Pending(); !equalInts(got, cShards) {
		t.Errorf("after the death Pending = %v, want %v", got, cShards)
	}
	for _, s := range cShards {
		if tc.servers["a"].Owns(s) {
			t.Errorf("shard %d adopted by a inside its grace while c still serves it: two live owners", s)
		}
		if !sc.Owns(s) {
			t.Errorf("joiner lost shard %d", s)
		}
	}

	// The joiner's announce folds its shards back, nothing re-adopted.
	handoffs := r3.Handoffs()
	if resp := announceTo(t, r3.ClusterAddr(), nc, walDir); resp.Status != joinAccepted {
		t.Fatalf("announce to the restarted router: status %d: %s", resp.Status, resp.ErrText)
	}
	if got := r3.Pending(); len(got) != 0 {
		t.Errorf("Pending = %v after the joiner announced, want empty", got)
	}
	fm := r3.Map()
	if got := fm.OwnedBy("c"); !equalInts(got, cShards) {
		t.Errorf("folded map gives c %v, want %v", got, cShards)
	}
	if len(fm.Unassigned()) != 0 {
		t.Errorf("shards still unassigned after the fold: %v", fm.Unassigned())
	}
	if got := r3.Handoffs(); got != handoffs {
		t.Errorf("folding ownership back commanded %d handoffs, want none", got-handoffs)
	}
}

// TestClusterJoinRebalance is the tentpole arc in-process: a brand-new
// node announces itself, the coordinator admits it and moves its
// consistent-hash share (pinned at 8 shards: {1,6} from a) onto it via
// byte-verified planned handoffs, each advancing the map version, with
// zero lost events.
func TestClusterJoinRebalance(t *testing.T) {
	walDir := t.TempDir()
	tc := startCluster(t, 8, walDir, "a", "b")

	for i := 0; i < 60; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%24+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
		if i%20 == 19 {
			httpTick(t, tc.front.URL)
		}
	}
	m := tc.router.Map()
	if got := m.OwnedBy("a"); !equalInts(got, []int{0, 1, 2, 5, 6}) {
		t.Fatalf("placement drifted: a owns %v, test assumes [0 1 2 5 6]", got)
	}

	// Boot c the way `richnote-serve -role=node -join=...` does: empty
	// ownership, same shared WAL dir, announce loop against the router's
	// cluster listener.
	sc, err := New(clusterNodeConfig(8, walDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Start(); err != nil {
		t.Fatal(err)
	}
	sc.SetRole("node")
	nc := NewNode("c", sc)
	if err := nc.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nc.Close()
		sc.CrashStop()
	})
	if err := nc.Announce(tc.router.ClusterAddr(), 25*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The rebalance runs on its own goroutine; wait for c's share.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cm := tc.router.Map(); len(cm.OwnedBy("c")) == 2 && nc.Joined() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join rebalance never completed: c owns %v, joined=%t",
				tc.router.Map().OwnedBy("c"), nc.Joined())
		}
		time.Sleep(10 * time.Millisecond)
	}

	final := tc.router.Map()
	if got := final.OwnedBy("c"); !equalInts(got, []int{1, 6}) {
		t.Fatalf("c owns %v, want the hash share [1 6]", got)
	}
	// Version advanced strictly: +1 membership extension, +1 per move.
	if final.Version < m.Version+3 {
		t.Errorf("map version %d after join, want ≥ %d (extension + 2 moves)", final.Version, m.Version+3)
	}
	// Byte-verified handoffs recorded restored state on the joiner, and
	// the sources dropped ownership.
	for _, s := range []int{1, 6} {
		if len(sc.AdoptedState(s)) == 0 {
			t.Errorf("joiner has no adopted state for shard %d", s)
		}
		if !sc.Owns(s) {
			t.Errorf("joiner does not own shard %d", s)
		}
		if tc.servers["a"].Owns(s) || tc.servers["b"].Owns(s) {
			t.Errorf("a source still owns moved shard %d", s)
		}
	}
	// Untouched shards never moved.
	for _, s := range []int{0, 2, 5} {
		if got := final.Owner(s).Name; got != "a" {
			t.Errorf("shard %d moved to %q; only the joiner's share may move", s, got)
		}
	}

	// Zero lost events: publishes flow to the moved shards' users, and
	// conservation holds over all three nodes after a drain.
	user := userOnShard(t, sc, 1)
	if code := publishVia(t, tc.front.URL, user, 9400); code != http.StatusAccepted {
		t.Errorf("publish to moved shard after join: status %d", code)
	}
	servers := []*Server{tc.servers["a"], tc.servers["b"], sc}
	for i := 0; i < 200; i++ {
		httpTick(t, tc.front.URL)
		depth := 0
		for _, s := range servers {
			for _, snap := range s.Snapshots() {
				depth += snap.QueueDepth + snap.BrokerPending
			}
		}
		if depth == 0 {
			break
		}
	}
	var arrived, delivered, dropped int
	for _, s := range servers {
		for _, snap := range s.Snapshots() {
			arrived += snap.Report.Arrived
			delivered += snap.Report.Delivered
			dropped += snap.Report.Dropped
		}
	}
	if arrived == 0 || arrived != delivered+dropped {
		t.Errorf("conservation violated after join: arrived %d != delivered %d + dropped %d",
			arrived, delivered, dropped)
	}

	// The probe loop now covers c: kill it and the membership notices.
	if got := len(tc.router.Live()); got != 3 {
		t.Fatalf("membership probes %d nodes after join, want 3", got)
	}
}

// TestClusterJoinValidation pins the announce-time checks: wrong shard
// count, missing WAL dir, a live peer's name at a different address, and
// a live peer's address under a different name are all rejected; a live
// member re-announcing is answered idempotently.
func TestClusterJoinValidation(t *testing.T) {
	tc := startCluster(t, 4, t.TempDir(), "a", "b")
	c := transport.NewClient(tc.router.ClusterAddr(), transport.ClientConfig{})
	defer c.Close()

	announce := func(jr joinReq) joinResp {
		t.Helper()
		_, raw, err := c.Call(FrameJoin, wal.Marshal(joinReqFields, &jr))
		if err != nil {
			t.Fatalf("FrameJoin: %v", err)
		}
		var resp joinResp
		if err := wal.Unmarshal(joinRespFields, raw, "join response", &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	aAddr := tc.nodes["a"].Addr()
	cases := []struct {
		name string
		req  joinReq
	}{
		{"shard count mismatch", joinReq{Name: "x", Addr: "127.0.0.1:1", Shards: 7, WALDir: "/tmp/w"}},
		{"missing WAL dir", joinReq{Name: "x", Addr: "127.0.0.1:1", Shards: 4}},
		{"live name, new address", joinReq{Name: "a", Addr: "127.0.0.1:1", Shards: 4, WALDir: "/tmp/w"}},
		{"live address, new name", joinReq{Name: "x", Addr: aAddr, Shards: 4, WALDir: "/tmp/w"}},
		{"unreachable joiner", joinReq{Name: "x", Addr: "127.0.0.1:1", Shards: 4, WALDir: "/tmp/w"}},
	}
	for _, tt := range cases {
		if resp := announce(tt.req); resp.Status != joinRejected || resp.ErrText == "" {
			t.Errorf("%s: status=%d err=%q, want rejection with reason", tt.name, resp.Status, resp.ErrText)
		}
	}
	if got := len(tc.router.Live()); got != 2 {
		t.Fatalf("rejected joins changed membership: %d live", got)
	}

	// A live member's announce is idempotent, not an error.
	resp := announce(joinReq{Name: "a", Addr: aAddr, Shards: 4, WALDir: "/tmp/w"})
	if resp.Status != joinAlreadyMember {
		t.Errorf("re-announce of a live member: status=%d err=%q, want already-member", resp.Status, resp.ErrText)
	}
}

// equalInts compares two int slices (nil == empty).
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
