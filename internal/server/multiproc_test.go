package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/notif"
)

// TestMultiProcessCluster is the acceptance test for the multi-node
// deployment: real richnote-serve processes — one router, three shard-owner
// nodes sharing a WAL directory — driven by the in-process closed loop
// (runLoad) through the router's real socket. One node is SIGKILLed
// mid-run; the router's probes must notice, command crash takeover of the
// orphaned shards from shared storage, and the load run must still deliver
// every event. Afterwards the cluster drains and the cross-node
// conservation invariant is checked over the router's aggregated /metrics.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}

	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	serveBin := filepath.Join(t.TempDir(), "richnote-serve")
	build := exec.Command(goBin, "build", "-race", "-o", serveBin, "./cmd/richnote-serve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building richnote-serve: %v\n%s", err, out)
	}

	const shards = 6
	walDir := t.TempDir()
	names := []string{"a", "b", "c"}
	httpAddrs := make(map[string]string, len(names))
	clusterAddrs := make(map[string]string, len(names))
	procs := make(map[string]*exec.Cmd, len(names)+1)
	logs := make(map[string]*bytes.Buffer, len(names)+1)

	startProc := func(name string, args ...string) {
		cmd := exec.Command(serveBin, args...)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, &buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		procs[name] = cmd
		logs[name] = &buf
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
	}

	// The router's cluster listener address is fixed up front so every
	// node can carry -join from boot: seed nodes announce idempotently,
	// and a restarted node (or router) finds the same rendezvous.
	routerClusterAddr := "127.0.0.1:" + freePort(t)
	startNode := func(name string) {
		startProc(name,
			"-role=node", "-node.name="+name,
			"-addr="+httpAddrs[name], "-cluster.listen="+clusterAddrs[name],
			"-shards="+strconv.Itoa(shards), "-round=0",
			"-wal.dir="+walDir, "-wal.fsync=always",
			"-network=cell",
			"-join="+routerClusterAddr, "-announce.every=250ms",
		)
	}
	for _, name := range names {
		httpAddrs[name] = "127.0.0.1:" + freePort(t)
		clusterAddrs[name] = "127.0.0.1:" + freePort(t)
		startNode(name)
	}
	for _, name := range names {
		waitHTTP(t, "http://"+httpAddrs[name]+"/healthz", 10*time.Second, logs[name])
	}

	routerAddr := "127.0.0.1:" + freePort(t)
	var peerParts []string
	for _, name := range names {
		peerParts = append(peerParts, name+"="+clusterAddrs[name])
	}
	startProc("router",
		"-role=router", "-addr="+routerAddr,
		"-shards="+strconv.Itoa(shards),
		"-peers="+strings.Join(peerParts, ","),
		"-cluster.listen="+routerClusterAddr,
	)
	routerURL := "http://" + routerAddr
	waitHTTP(t, routerURL+"/healthz", 15*time.Second, logs["router"])

	// Drive load through the router in the background.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	loadDone := make(chan loadResult, 1)
	go func() {
		loadDone <- runLoad(ctx, loadOpts{
			url: routerURL, events: 1500, workers: 6, users: 40, seed: 42, tickEvery: 100,
		})
	}()

	// Wait until real traffic is flowing, then kill one node cold.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if metricSum(t, httpGet(t, routerURL+"/metrics"), "richnote_router_forwarded_publishes_total") >= 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw 200 forwarded publishes\nrouter log:\n%s", logs["router"])
		}
		select {
		case res := <-loadDone:
			t.Fatalf("load finished before the kill (%+v); raise events", res)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := procs["b"].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL node b: %v", err)
	}
	_, _ = procs["b"].Process.Wait()

	// The router must notice the death, bump the map, and the survivors
	// must cover the whole shard space between them.
	deadline = time.Now().Add(20 * time.Second)
	for {
		var hr RouterHealthResponse
		if err := json.Unmarshal([]byte(httpGet(t, routerURL+"/healthz")), &hr); err == nil {
			covered := make(map[int]bool)
			bDown := false
			for _, nh := range hr.Nodes {
				if nh.Name == "b" {
					bDown = !nh.Up
					continue
				}
				for _, s := range nh.OwnedShards {
					covered[s] = true
				}
			}
			if hr.MapVersion >= 2 && bDown && len(covered) == shards {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("takeover never completed\nrouter log:\n%s", logs["router"])
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The load run must finish with every event accepted: events bound for
	// the dead node's shards ride 503 + Retry-After until the survivors own
	// them. ctx bounds the run at 120 s.
	if res := <-loadDone; res.accepted != 1500 || res.failed != 0 {
		t.Fatalf("load accepted=%d failed=%d, want 1500/0", res.accepted, res.failed)
	}

	// Drain every queue through the router, then check conservation on the
	// aggregated exposition: nothing the cluster accepted may be lost in
	// the handoff.
	drained := false
	for i := 0; i < 300; i++ {
		resp, err := http.Post(routerURL+"/v1/tick", "application/json", nil)
		if err != nil {
			t.Fatalf("tick: %v", err)
		}
		resp.Body.Close()
		body := httpGet(t, routerURL+"/metrics")
		if metricSum(t, body, "richnote_shard_queue_depth") == 0 &&
			metricSum(t, body, "richnote_shard_broker_pending") == 0 &&
			metricSum(t, body, "richnote_shard_ingest_depth") == 0 {
			drained = true
			break
		}
	}
	if !drained {
		t.Fatal("cluster queues never drained after the run")
	}
	body := httpGet(t, routerURL+"/metrics")
	arrived := metricSum(t, body, "richnote_notifications_arrived_total")
	delivered := metricSum(t, body, "richnote_notifications_delivered_total")
	dropped := metricSum(t, body, "richnote_dropped_total")
	if arrived == 0 || arrived != delivered+dropped {
		t.Errorf("conservation violated across processes: arrived %g != delivered %g + dropped %g",
			arrived, delivered, dropped)
	}
	if metricSum(t, body, "richnote_cluster_map_version") < 2 {
		t.Error("map version not bumped in metrics")
	}
	if metricSum(t, body, "richnote_router_handoffs_total") == 0 {
		t.Error("router reported no handoffs after a node death")
	}

	// ---- Rejoin arc: the SIGKILLed node comes back on fresh ports with
	// the same name and WAL dir, announces itself, and the coordinator
	// rebalances its consistent-hash share back onto it via byte-verified
	// planned handoffs (MoveShard fails internally on any byte mismatch,
	// so b owning shards again IS the byte-equality assertion).
	preRejoinVersion := metricSum(t, body, "richnote_cluster_map_version")
	preRejoinHandoffs := metricSum(t, body, "richnote_router_handoffs_total")
	httpAddrs["b"] = "127.0.0.1:" + freePort(t)
	clusterAddrs["b"] = "127.0.0.1:" + freePort(t)
	startNode("b")
	waitHTTP(t, "http://"+httpAddrs["b"]+"/healthz", 10*time.Second, logs["b"])

	deadline = time.Now().Add(30 * time.Second)
	for {
		var hr RouterHealthResponse
		if err := json.Unmarshal([]byte(httpGet(t, routerURL+"/healthz")), &hr); err == nil {
			covered := make(map[int]bool)
			bOwns := 0
			for _, nh := range hr.Nodes {
				for _, s := range nh.OwnedShards {
					covered[s] = true
				}
				if nh.Name == "b" && nh.Up {
					bOwns = len(nh.OwnedShards)
				}
			}
			if bOwns > 0 && len(covered) == shards && len(hr.UnassignedShards) == 0 &&
				float64(hr.MapVersion) > preRejoinVersion {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoin rebalance never completed\nrouter log:\n%s\nnode b log:\n%s",
				logs["router"], logs["b"])
		}
		time.Sleep(100 * time.Millisecond)
	}
	body = httpGet(t, routerURL+"/metrics")
	if got := metricSum(t, body, "richnote_router_handoffs_total"); got <= preRejoinHandoffs {
		t.Errorf("rejoin moved no shards: handoffs %g, was %g", got, preRejoinHandoffs)
	}
	if got := metricSum(t, body, "richnote_cluster_map_version"); got <= preRejoinVersion {
		t.Errorf("map version %g after rejoin, want > %g", got, preRejoinVersion)
	}

	// Zero lost events across the rejoin: the moved shards carried their
	// state, so the cluster-wide conservation totals still balance.
	arrived = metricSum(t, body, "richnote_notifications_arrived_total")
	delivered = metricSum(t, body, "richnote_notifications_delivered_total")
	dropped = metricSum(t, body, "richnote_dropped_total")
	if arrived == 0 || arrived != delivered+dropped {
		t.Errorf("conservation violated after rejoin: arrived %g != delivered %g + dropped %g",
			arrived, delivered, dropped)
	}

	// ---- Router restart recovery: kill the coordinator cold and start a
	// replacement on the same cluster listener. It must rebuild the map
	// from what the nodes report owning — including everything that moved
	// after the seed assignment — not recompute from seed placement.
	preRestartVersion := metricSum(t, body, "richnote_cluster_map_version")
	if err := procs["router"].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL router: %v", err)
	}
	_, _ = procs["router"].Process.Wait()

	routerAddr2 := "127.0.0.1:" + freePort(t)
	peerParts = peerParts[:0]
	for _, name := range names {
		peerParts = append(peerParts, name+"="+clusterAddrs[name])
	}
	startProc("router2",
		"-role=router", "-addr="+routerAddr2,
		"-shards="+strconv.Itoa(shards),
		"-peers="+strings.Join(peerParts, ","),
		"-cluster.listen="+routerClusterAddr,
	)
	router2URL := "http://" + routerAddr2
	waitHTTP(t, router2URL+"/healthz", 15*time.Second, logs["router2"])

	var hr RouterHealthResponse
	if err := json.Unmarshal([]byte(httpGet(t, router2URL+"/healthz")), &hr); err != nil {
		t.Fatalf("restarted router healthz: %v\n%s", err, logs["router2"])
	}
	if float64(hr.MapVersion) <= preRestartVersion {
		t.Errorf("recovered map version %d, want > %g (strictly increasing across router restarts)",
			hr.MapVersion, preRestartVersion)
	}
	if len(hr.UnassignedShards) != 0 {
		t.Errorf("recovery left shards unassigned: %v", hr.UnassignedShards)
	}
	covered := make(map[int]string)
	for _, nh := range hr.Nodes {
		if !nh.Up {
			t.Errorf("node %s down after router restart", nh.Name)
		}
		for _, s := range nh.OwnedShards {
			covered[s] = nh.Name
		}
	}
	if len(covered) != shards {
		t.Errorf("recovered map covers %d of %d shards: %v", len(covered), shards, covered)
	}

	// The replacement serves traffic immediately over the recovered map.
	var pub PublishRequest
	pub.Topic.Kind = "friend-feed"
	pub.Topic.Entity = 1
	pub.Recipients = []notif.UserID{1}
	pub.Item = audioItem(990001, 2)
	pubBody, _ := json.Marshal(pub)
	resp, err := http.Post(router2URL+"/v1/publish", "application/json", bytes.NewReader(pubBody))
	if err != nil {
		t.Fatalf("publish through restarted router: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("publish through restarted router: status %d, want 202\nrouter2 log:\n%s",
			resp.StatusCode, logs["router2"])
	}
}

// freePort reserves an ephemeral TCP port and returns it as a string.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return port
}

// waitHTTP polls a URL until it answers 200.
func waitHTTP(t *testing.T, url string, timeout time.Duration, log *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered 200\nprocess log:\n%s", url, log)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// metricSum sums every sample of one metric family in a Prometheus text
// exposition, across label sets.
func metricSum(t *testing.T, body, name string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Exact family match: next char must be a label brace or space,
		// not a longer metric name.
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		sum += v
	}
	return sum
}
