package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/cluster"
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
// The two halves share no lock. Everything that decides ownership lives
// in the coordinator, on its one goroutine; the HTTP handlers here load
// the view it last published, once per request, and otherwise touch only
// atomics.
//
// Backpressure propagates end-to-end: a node's ErrBackpressure becomes the
// router's 429 with the node's Retry-After; an unreachable or non-owning
// node becomes a 503 with Retry-After, since a map update is usually
// seconds away.
type Router struct {
	shards int
	ring   *ring
	cfg    RouterConfig
	coord  *coordinator

	// view is the coordinator's last published routing state; nil until
	// Start has established the initial map.
	view atomic.Pointer[view] // richnote:atomic

	// lastRounds caches each shard's last observed round from tick and
	// health responses, so a dead or unassigned shard reports its
	// last-known round instead of a zero that reads as "reset". The slice
	// header is set once in NewRouter and never reassigned; each element
	// is its own atomic.
	lastRounds []atomic.Int64

	ts *transport.Server // join listener, set once in Start; nil when cfg.Listen is empty

	handoffs   atomic.Uint64  // richnote:atomic — shards reassigned by this coordinator
	fwdLatency forwardLatency // richnote:atomic — forward round-trip seconds
}

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
	peers := make(map[string]*peer, len(cfg.Peers))
	byAddr := make(map[string]string, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if _, dup := peers[p.Name]; dup {
			return nil, fmt.Errorf("server: duplicate peer name %q", p.Name)
		}
		// Duplicate addresses would make one node answer for two names.
		if prev, dup := byAddr[p.Addr]; dup {
			return nil, fmt.Errorf("server: peers %q and %q share address %q", prev, p.Name, p.Addr)
		}
		byAddr[p.Addr] = p.Name
		peers[p.Name] = newPeer(p, cfg.Client)
	}
	r := &Router{
		shards:     cfg.Shards,
		ring:       newRing(cfg.Shards, 0),
		cfg:        cfg,
		lastRounds: make([]atomic.Int64, cfg.Shards),
	}
	r.coord = &coordinator{
		r:       r,
		events:  make(chan coordEvent),
		done:    make(chan struct{}),
		pending: make(map[int]int),
		peers:   peers,
	}
	return r, nil
}

// Start brings the router up: open the join listener (if configured),
// establish the initial map — fresh assignment over the seed peers, or
// restart recovery from node-reported ownership — and begin health
// probing. Announces arriving before the map exists are refused; the
// node's announce loop tries again.
func (r *Router) Start() error {
	var ts *transport.Server
	if r.cfg.Listen != "" {
		var err error
		if ts, err = transport.Listen(r.cfg.Listen, r); err != nil {
			return fmt.Errorf("server: router join listener: %w", err)
		}
	}
	if err := r.coord.start(); err != nil {
		if ts != nil {
			ts.Close()
		}
		return err
	}
	r.ts = ts
	return nil
}

// Stop halts the coordinator — the transition in flight commits or rolls
// back first, then every node connection drops — and closes the join
// listener. Shard-owner nodes keep serving; only this front goes away.
func (r *Router) Stop() {
	if !r.coord.call(nil) {
		return // never started, or already stopped
	}
	<-r.coord.done // the stop event is acknowledged just before the loop returns
	if r.ts != nil {
		r.ts.Close()
	}
}

// Map returns the current cluster map (nil before Start completes).
func (r *Router) Map() *cluster.Map {
	if v := r.view.Load(); v != nil {
		return v.m
	}
	return nil
}

// Live returns the live node set as of the last map transition.
func (r *Router) Live() []cluster.Node {
	if v := r.view.Load(); v != nil {
		return slices.Clone(v.live)
	}
	return nil
}

// Handoffs returns how many shard reassignments this coordinator has
// commanded (crash takeovers + planned moves).
func (r *Router) Handoffs() uint64 { return r.handoffs.Load() }

// CheckNow runs one synchronous probe pass and the reconcile after it,
// so tests and readiness checks need not wait out a probe interval.
func (r *Router) CheckNow() { r.coord.call(r.coord.probe) }

// ClusterAddr returns the join listener's address; "" when joins are
// disabled (no cfg.Listen) or before Start.
func (r *Router) ClusterAddr() string {
	if r.ts == nil {
		return ""
	}
	return r.ts.Addr()
}

// Pending returns the ascending list of shards awaiting an adopt retry.
func (r *Router) Pending() (shards []int) {
	r.coord.call(func() { shards = r.coord.pendingShards() })
	return shards
}

// MoveShard performs a planned handoff: freeze the shard on its current
// owner, ship the snapshot bytes to the target over the transport, verify
// the restored state is bit-identical, and publish the updated map.
func (r *Router) MoveShard(shard int, target string) error {
	err := errors.New("server: router is not running")
	r.coord.call(func() { err = r.coord.moveShard(shard, target) })
	return err
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
		resp := r.coord.join(jr)
		return FrameJoinResp, wal.Marshal(joinRespFields, &resp), nil
	default:
		return 0, nil, fmt.Errorf("server: router: unknown frame type %d", typ)
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

// unavailable answers 503 with Retry-After: a map update is usually
// seconds away, so the client is told when to come back.
func (r *Router) unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(r.retrySeconds()))
	httpError(w, http.StatusServiceUnavailable, msg)
}

// route resolves a user to the peer serving their shard under one view.
// It refuses fast — no dial, no retry — when the shard is unassigned or
// its owner is marked down, so publishes and feed reads for a dead node's
// users cost a 503, not a timeout.
func (r *Router) route(v *view, user notif.UserID) (*peer, error) {
	if v == nil {
		return nil, errors.New("router has no shard map yet")
	}
	shard := r.ring.shardFor(user)
	owner := v.m.Owner(shard).Name
	if owner == "" {
		return nil, fmt.Errorf("shard %d is unassigned (takeover retry in progress)", shard)
	}
	p := v.peers[owner]
	if p == nil || !p.up.Load() {
		return nil, fmt.Errorf("node %s (shard %d) is down", owner, shard)
	}
	return p, nil
}

// forwardPublish routes one recipient's publication to the owning node.
// The returned outcome folds transport failures into publishError so the
// caller only reasons about the four status codes.
func (r *Router) forwardPublish(v *view, topic pubsub.TopicID, user notif.UserID, item notif.Item) publishOutcome {
	p, err := r.route(v, user)
	if err != nil {
		return publishOutcome{status: publishNotOwner, errText: err.Error()}
	}
	start := time.Now() //lint:allow wallclock forward latency measures real network round trips
	out, err := p.publish(&envelope{topic: topic, user: user, item: item})
	r.fwdLatency.observe(time.Since(start)) //lint:allow wallclock forward latency measures real network round trips
	if err != nil {
		// Mark the node down immediately: until the prober's next pass
		// confirms either way, further requests fail fast instead of each
		// eating a dial timeout. A successful probe flips it back up.
		p.up.Store(false)
		return publishOutcome{status: publishError, errText: err.Error()}
	}
	p.forwarded.Add(1)
	return out
}

func (r *Router) handlePublish(w http.ResponseWriter, req *http.Request) {
	p := publishReqs.Get().(*publishReq)
	defer publishReqs.Put(p)
	if !decodePublish(w, req, p) {
		return
	}

	v := r.view.Load()
	var resp PublishResponse
	backpressured, unavailable := false, false
	retryAfter := 0
	for _, rcpt := range p.recipients {
		out := r.forwardPublish(v, p.topic, rcpt, p.item)
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
		p.writeResponse(w, http.StatusServiceUnavailable, resp)
	case backpressured:
		if retryAfter < 1 {
			retryAfter = r.retrySeconds()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		p.writeResponse(w, http.StatusTooManyRequests, resp)
	default:
		p.writeResponse(w, http.StatusAccepted, resp)
	}
}

func (r *Router) handleDeliveries(w http.ResponseWriter, req *http.Request) {
	user, ok := pathUser(w, req)
	if !ok {
		return
	}
	p, err := r.route(r.view.Load(), user)
	if err != nil {
		r.unavailable(w, err.Error())
		return
	}
	resp, err := p.deliveries(user)
	if err != nil {
		r.unavailable(w, err.Error())
		return
	}
	if !resp.Owned {
		// The node's map lags ours (or ours lags the truth). Retryable.
		r.unavailable(w, fmt.Sprintf("node %s no longer owns user %d's shard", p.name, user))
		return
	}
	writeFeed(w, func(b []byte) []byte { return appendDeliveriesJSON(b, user, resp.Deliveries, nil) })
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
	v := r.view.Load()
	if v == nil {
		httpError(w, http.StatusServiceUnavailable, "router has no shard map yet")
		return
	}
	// Fan the tick out to every node in name order (deterministic),
	// splice the per-shard rounds into the standalone response shape, and
	// fill the gaps — dead nodes, unassigned shards, failed ticks — from
	// the last-known-round cache.
	resp := RouterTickResponse{Rounds: make([]int, r.shards)}
	for s := range resp.Rounds {
		resp.Rounds[s] = int(r.lastRounds[s].Load())
	}
	for _, n := range v.m.Nodes {
		p := v.peers[n.Name]
		if p == nil || !p.up.Load() {
			resp.Errors = append(resp.Errors, fmt.Sprintf("node %s down; its shards report last-known rounds", n.Name))
			continue
		}
		ticked, err := p.tick()
		if err != nil {
			p.up.Store(false)
			resp.Errors = append(resp.Errors, fmt.Sprintf("tick on node %s: %s", n.Name, err))
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
	v := r.view.Load()
	if v == nil {
		httpError(w, http.StatusServiceUnavailable, "router has no shard map yet")
		return
	}
	resp := RouterHealthResponse{Status: "ok", Role: "router", MapVersion: v.m.Version, Shards: r.shards}
	if un := v.m.Unassigned(); len(un) > 0 {
		resp.UnassignedShards = un
	}
	anyUp := false
	for _, name := range v.names() {
		p := v.peers[name]
		nh := RouterNodeHealth{Name: name, Addr: p.addr(), OwnedShards: []int{}, Rounds: []int{}}
		if p.up.Load() {
			if h, err := p.health(); err == nil {
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
