package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/wal"
)

// startJoiner boots one more node over the cluster's shared WAL dir the
// way `richnote-serve -role=node` does — empty ownership, transport up —
// without an announce loop: tests decide when it announces.
func startJoiner(t *testing.T, shards int, walDir, name string) (*Server, *Node) {
	t.Helper()
	s, err := New(clusterNodeConfig(shards, walDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.SetRole("node")
	n := NewNode(name, s)
	if err := n.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = n.Close()
		s.CrashStop()
	})
	return s, n
}

// announceTo sends one FrameJoin for the node to a router's cluster
// listener and returns the verdict.
func announceTo(t *testing.T, routerAddr string, n *Node, walDir string) joinResp {
	t.Helper()
	c := transport.NewClient(routerAddr, transport.ClientConfig{})
	defer c.Close()
	jr := joinReq{Name: n.Name(), Addr: n.Addr(), Shards: n.Server().Shards(), WALDir: walDir}
	_, raw, err := c.Call(FrameJoin, wal.Marshal(joinReqFields, &jr))
	if err != nil {
		t.Fatalf("FrameJoin for %s: %v", n.Name(), err)
	}
	var resp joinResp
	if err := wal.Unmarshal(joinRespFields, raw, "join response", &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// assertOneOwnerPerShard checks the map never lies in either direction:
// every shard is served by exactly one process, and it is the node the
// map names.
func assertOneOwnerPerShard(t *testing.T, m *cluster.Map, servers map[string]*Server) {
	t.Helper()
	for s := 0; s < m.Shards; s++ {
		var owners []string
		for name, srv := range servers {
			if srv.Owns(s) {
				owners = append(owners, name)
			}
		}
		if len(owners) != 1 {
			t.Errorf("shard %d is served by %v, want exactly one node", s, owners)
			continue
		}
		if got := m.Owner(s).Name; got != owners[0] {
			t.Errorf("shard %d: map says %q, node %s serves it", s, got, owners[0])
		}
	}
}

// TestRouterForwardLatencyHistogram pins the fixed-bucket replacement for
// the unbounded sample log: over the same samples its buckets, count and
// sum equal a brute-force count and sum of the raw samples, and the
// exposition lines benchmark/blackbox.go parses keep their names, le
// labels and order.
func TestRouterForwardLatencyHistogram(t *testing.T) {
	var got forwardLatency
	var ref []float64 // every sample, in seconds
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 10_000; i++ {
		// Log-uniform over 10µs … 10s: every bucket and the overflow fill.
		d := time.Duration(1e4 * math.Pow(1e6, rng.Float64()))
		if i%100 == 0 {
			d = time.Duration(forwardLatencyBounds[i/100%len(forwardLatencyBounds)] * 1e9) // exactly on a bound
		}
		got.observe(d)
		ref = append(ref, d.Seconds())
	}

	var out strings.Builder
	got.write(func(format string, args ...any) { fmt.Fprintf(&out, format, args...) })
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")

	want := []string{
		"# HELP richnote_router_forward_latency_seconds Round-trip latency of publish forwards to shard-owner nodes.",
		"# TYPE richnote_router_forward_latency_seconds histogram",
	}
	refSum := 0.0
	for _, v := range ref {
		refSum += v
	}
	for _, b := range forwardLatencyBounds {
		n := 0
		for _, v := range ref {
			if v <= b {
				n++
			}
		}
		want = append(want, fmt.Sprintf("richnote_router_forward_latency_seconds_bucket{le=%q} %d",
			strconv.FormatFloat(b, 'g', -1, 64), n))
	}
	want = append(want, fmt.Sprintf("richnote_router_forward_latency_seconds_bucket{le=\"+Inf\"} %d", len(ref)))
	sumLine := len(want)
	want = append(want, "richnote_router_forward_latency_seconds_sum")
	want = append(want, fmt.Sprintf("richnote_router_forward_latency_seconds_count %d", len(ref)))

	if len(lines) != len(want) {
		t.Fatalf("exposition has %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i := range want {
		if i == sumLine {
			name, val, _ := strings.Cut(lines[i], " ")
			sum, err := strconv.ParseFloat(val, 64)
			if name != want[i] || err != nil || math.Abs(sum-refSum) > 1e-9*refSum {
				t.Errorf("line %d = %q, want %s ≈ %g", i, lines[i], want[i], refSum)
			}
			continue
		}
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestRouterGaugeBlock pins the router-tier series of /metrics — names,
// labels, HELP/TYPE lines and order — for a fixed state.
func TestRouterGaugeBlock(t *testing.T) {
	nodes := []cluster.Node{{Name: "a", Addr: "127.0.0.1:1"}, {Name: "b", Addr: "127.0.0.1:2"}}
	r, err := NewRouter(RouterConfig{Shards: 4, Peers: nodes})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.Assemble(7, nodes, 4, []string{"a", "", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	v := &view{m: m, live: nodes, peers: r.coord.peers}
	v.peers["a"].forwarded.Add(12)
	v.peers["b"].up.Store(false)
	r.handoffs.Add(3)
	r.fwdLatency.observe(700 * time.Microsecond)
	r.fwdLatency.observe(3 * time.Second)

	rec := httptest.NewRecorder()
	r.writeRouterGauges(rec, v)
	const want = `# HELP richnote_router_forwarded_publishes_total Publish requests forwarded to each node.
# TYPE richnote_router_forwarded_publishes_total counter
richnote_router_forwarded_publishes_total{node="a"} 12
richnote_router_forwarded_publishes_total{node="b"} 0
# HELP richnote_router_transport_errors_total Transport-level failures (dial, write, read, corruption) per node client.
# TYPE richnote_router_transport_errors_total counter
richnote_router_transport_errors_total{node="a"} 0
richnote_router_transport_errors_total{node="b"} 0
# HELP richnote_router_reconnects_total Re-dials after an established connection was lost, per node client.
# TYPE richnote_router_reconnects_total counter
richnote_router_reconnects_total{node="a"} 0
richnote_router_reconnects_total{node="b"} 0
# HELP richnote_router_node_up Last probe verdict per node (1 up, 0 down).
# TYPE richnote_router_node_up gauge
richnote_router_node_up{node="a"} 1
richnote_router_node_up{node="b"} 0
# HELP richnote_cluster_map_version Version of the shard assignment map this router serves from.
# TYPE richnote_cluster_map_version gauge
richnote_cluster_map_version 7
# HELP richnote_cluster_unassigned_shards Shards the map records as owned by nobody, awaiting adopt retry.
# TYPE richnote_cluster_unassigned_shards gauge
richnote_cluster_unassigned_shards 1
# HELP richnote_router_handoffs_total Shard reassignments commanded by this coordinator (crash takeovers + planned moves).
# TYPE richnote_router_handoffs_total counter
richnote_router_handoffs_total 3
# HELP richnote_router_forward_latency_seconds Round-trip latency of publish forwards to shard-owner nodes.
# TYPE richnote_router_forward_latency_seconds histogram
richnote_router_forward_latency_seconds_bucket{le="0.0005"} 0
richnote_router_forward_latency_seconds_bucket{le="0.001"} 1
richnote_router_forward_latency_seconds_bucket{le="0.0025"} 1
richnote_router_forward_latency_seconds_bucket{le="0.005"} 1
richnote_router_forward_latency_seconds_bucket{le="0.01"} 1
richnote_router_forward_latency_seconds_bucket{le="0.025"} 1
richnote_router_forward_latency_seconds_bucket{le="0.05"} 1
richnote_router_forward_latency_seconds_bucket{le="0.1"} 1
richnote_router_forward_latency_seconds_bucket{le="0.25"} 1
richnote_router_forward_latency_seconds_bucket{le="0.5"} 1
richnote_router_forward_latency_seconds_bucket{le="1"} 1
richnote_router_forward_latency_seconds_bucket{le="2.5"} 1
richnote_router_forward_latency_seconds_bucket{le="+Inf"} 2
richnote_router_forward_latency_seconds_sum 3.0007
richnote_router_forward_latency_seconds_count 2
`
	if got := rec.Body.String(); got != want {
		t.Errorf("router gauge block drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRouterFeedReadRefusesDownNode pins the shared route helper: a feed
// read for a user whose node is marked down answers 503 + Retry-After at
// once — no dial, no client retry — exactly as a publish does.
func TestRouterFeedReadRefusesDownNode(t *testing.T) {
	tc := startCluster(t, 4, t.TempDir(), "a", "b")
	bShards := tc.router.Map().OwnedBy("b")
	if len(bShards) == 0 {
		t.Fatal("node b owns nothing")
	}
	user := userOnShard(t, tc.servers["b"], bShards[0])
	url := tc.front.URL + "/v1/users/" + strconv.Itoa(int(user)) + "/deliveries"
	httpGet(t, url) // 200 while b is up

	// Kill b; one probe pass (below the death threshold) marks it down.
	tc.servers["b"].CrashStop()
	_ = tc.nodes["b"].Close()
	tc.router.CheckNow()
	b := tc.router.view.Load().peers["b"]
	if b.up.Load() {
		t.Fatal("failed probe did not mark the node down")
	}

	errsBefore := b.client.Load().Errors()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("feed read for a down node's user: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := b.client.Load().Errors(); got != errsBefore {
		t.Errorf("feed read dialed the down node: transport errors %d → %d", errsBefore, got)
	}
}

// TestClusterStopDuringJoinRebalance pins Stop's ordering: the coordinator
// stops first — the transition in flight commits or rolls back — and only
// then do the node connections close. Stopping mid-rebalance used to close
// the clients under a move that had already frozen its source, whose adopt
// and rollback then both failed: a shard frozen and unowned.
func TestClusterStopDuringJoinRebalance(t *testing.T) {
	walDir := t.TempDir()
	tc := startCluster(t, 8, walDir, "a", "b")
	for i := 0; i < 60; i++ {
		if code := publishVia(t, tc.front.URL, notif.UserID(i%24+1), i+1); code != http.StatusAccepted {
			t.Fatalf("publish %d: status %d", i, code)
		}
	}
	httpTick(t, tc.front.URL)

	sc, nc := startJoiner(t, 8, walDir, "c")
	if resp := announceTo(t, tc.router.ClusterAddr(), nc, walDir); resp.Status != joinAccepted {
		t.Fatalf("join: status %d: %s", resp.Status, resp.ErrText)
	}
	// The announce is answered before any move ships; stop as soon as the
	// membership extension is visible.
	deadline := time.Now().Add(10 * time.Second)
	for tc.router.Map().NodeAddr("c") == "" {
		if time.Now().After(deadline) {
			t.Fatal("membership extension never published")
		}
		runtime.Gosched()
	}
	tc.router.Stop()

	servers := map[string]*Server{"a": tc.servers["a"], "b": tc.servers["b"], "c": sc}
	assertOneOwnerPerShard(t, tc.router.Map(), servers)

	select {
	case <-tc.router.coord.done:
	default:
		t.Error("coordinator loop still running after Stop")
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, frame := range []string{"server.(*coordinator).", "server.(*Router)."} {
		if strings.Contains(stacks, frame) {
			t.Errorf("a router goroutine outlived Stop (%s on a stack):\n%s", frame, stacks)
		}
	}

	// Stopped is stopped: the control API refuses instead of hanging.
	if err := tc.router.MoveShard(0, "b"); err == nil {
		t.Error("MoveShard on a stopped router succeeded")
	}
	tc.router.CheckNow()
	tc.router.Stop()
}

// recordingNode serves a Node's frames while recording the version of
// every map update it receives.
type recordingNode struct {
	n        *Node
	mu       sync.Mutex
	versions []uint64
}

func (rn *recordingNode) ServeFrame(typ byte, payload []byte) (byte, []byte, error) {
	if typ == FrameMapUpdate {
		if m, err := cluster.Decode(payload); err == nil {
			rn.mu.Lock()
			rn.versions = append(rn.versions, m.Version)
			rn.mu.Unlock()
		}
	}
	return rn.n.ServeFrame(typ, payload)
}

// TestClusterCoordinatorSerializes tests the property the router's mutexes
// used to supply, now that one goroutine supplies it: under concurrent
// planned moves, join announces, probe passes and HTTP traffic, map
// versions advance linearly, ownership stays single and nothing is lost.
func TestClusterCoordinatorSerializes(t *testing.T) {
	const shards = 8
	walDir := t.TempDir()
	names := []string{"a", "b", "c", "d"}
	servers := make(map[string]*Server, len(names))
	recorders := make(map[string]*recordingNode, len(names))
	nodes := make(map[string]*Node, len(names))
	var seeds []cluster.Node
	for _, name := range names {
		s, err := New(clusterNodeConfig(shards, walDir))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		s.SetRole("node")
		n := NewNode(name, s)
		rn := &recordingNode{n: n}
		if n.ts, err = transport.Listen("127.0.0.1:0", rn); err != nil {
			t.Fatal(err)
		}
		servers[name], nodes[name], recorders[name] = s, n, rn
		if name != "d" { // d joins at runtime
			seeds = append(seeds, cluster.Node{Name: name, Addr: n.Addr()})
		}
	}
	r, err := NewRouter(RouterConfig{Shards: shards, Peers: seeds, Listen: "127.0.0.1:0", ProbeInterval: time.Hour})
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
		for _, name := range names {
			_ = nodes[name].Close()
			servers[name].CrashStop()
		}
	})

	// Two shards ping-pong between the seed nodes while everything else
	// runs; each worker does a fixed number of operations.
	const ops = 12
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				fn(i)
			}
		}()
	}
	for _, shard := range []int{0, 3} {
		worker(func(i int) {
			// A move may lose a race with the join rebalance for the same
			// shard and find it elsewhere; any outcome but a lying map is fine.
			_ = r.MoveShard(shard, names[i%3])
		})
	}
	worker(func(int) {
		if resp := announceTo(t, r.ClusterAddr(), nodes["d"], walDir); resp.Status == joinRejected {
			t.Errorf("announce of d rejected: %s", resp.ErrText)
		}
	})
	worker(func(int) { r.CheckNow() })
	var accepted int
	worker(func(i int) {
		for j := 0; j < 10; j++ {
			// 503s are expected while a shard is mid-move; only 202s count.
			if publishVia(t, front.URL, notif.UserID((i*10+j)%48+1), i*10+j+1) == http.StatusAccepted {
				accepted++
			}
		}
		resp, err := http.Post(front.URL+"/v1/tick", "application/json", nil)
		if err != nil {
			t.Errorf("tick: %v", err)
			return
		}
		resp.Body.Close()
	})
	wg.Wait()
	r.CheckNow() // settle: every node probed up again, nothing left pending

	// Versions each node received are strictly increasing: transitions
	// never interleave.
	for _, name := range names {
		rn := recorders[name]
		rn.mu.Lock()
		for i := 1; i < len(rn.versions); i++ {
			if rn.versions[i] <= rn.versions[i-1] {
				t.Errorf("node %s received map versions out of order: %v", name, rn.versions)
				break
			}
		}
		if len(rn.versions) == 0 {
			t.Errorf("node %s never received a map", name)
		}
		rn.mu.Unlock()
	}

	final := r.Map()
	if len(final.Unassigned()) != 0 || len(r.Pending()) != 0 {
		t.Errorf("unassigned %v, pending %v after settling", final.Unassigned(), r.Pending())
	}
	if final.NodeAddr("d") == "" || len(r.Live()) != 4 {
		t.Errorf("joiner not a member: nodes %v, live %v", final.Nodes, r.Live())
	}
	assertOneOwnerPerShard(t, final, servers)

	// Conservation across all four nodes after a drain, and nothing
	// arrived that the router did not acknowledge.
	if accepted == 0 {
		t.Fatal("no publish was accepted")
	}
	for i := 0; ; i++ {
		httpTick(t, front.URL)
		depth := 0
		for _, s := range servers {
			for _, snap := range s.Snapshots() {
				depth += snap.QueueDepth + snap.BrokerPending
			}
		}
		if depth == 0 {
			break
		}
		if i == 200 {
			t.Fatal("cluster queues never drained")
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
		t.Errorf("conservation violated: arrived %d != delivered %d + dropped %d", arrived, delivered, dropped)
	}
	if arrived != accepted {
		t.Errorf("arrived %d != accepted %d publishes", arrived, accepted)
	}
}
