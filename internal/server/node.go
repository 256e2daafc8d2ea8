package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/wal"
)

// Node wraps a Server in the cluster's node role: it owns a subset of the
// shard space (Config.OwnedShards, possibly empty until the coordinator
// assigns some) and serves the binary transport the router and its peers
// speak — publish forwarding, deliveries fetch, tick fan-out, health,
// freeze/adopt handoff commands and stats aggregation. The HTTP API can
// still run alongside for direct inspection; in cluster deployments the
// router is the only HTTP front.
type Node struct {
	name string
	srv  *Server
	ts   *transport.Server

	// Join announce loop (DESIGN.md §15): a node told where the
	// coordinator listens keeps announcing itself until admitted — and
	// keeps announcing after, so a restarted router re-learns it exists.
	announceStop chan struct{}
	announceDone chan struct{}
	joined       atomic.Bool // richnote:atomic — last announce was accepted
}

// NewNode names a server instance for cluster membership. Serve starts
// the transport listener.
func NewNode(name string, srv *Server) *Node {
	return &Node{name: name, srv: srv}
}

// Name returns the node's cluster-wide identity.
func (n *Node) Name() string { return n.name }

// Server returns the wrapped server.
func (n *Node) Server() *Server { return n.srv }

// Serve starts the transport listener on addr (":0" for ephemeral).
func (n *Node) Serve(addr string) error {
	ts, err := transport.Listen(addr, n)
	if err != nil {
		return fmt.Errorf("server: node %s: %w", n.name, err)
	}
	n.ts = ts
	return nil
}

// Addr returns the transport listener address; "" before Serve.
func (n *Node) Addr() string {
	if n.ts == nil {
		return ""
	}
	return n.ts.Addr()
}

// Announce starts the join loop: every interval the node announces
// itself to the coordinator's cluster listener until stopped (Close).
// The loop never gives up and never stops once joined — announces are
// idempotent on the router, cost one tiny frame, and a router restart
// silently un-joins every post-seed node until its next announce folds
// it back in. Requires Serve first (the announce carries the transport
// address the router will dial back).
func (n *Node) Announce(routerAddr string, every time.Duration) error {
	if n.ts == nil {
		return fmt.Errorf("server: node %s: Announce before Serve (no address to advertise)", n.name)
	}
	if n.announceStop != nil {
		return fmt.Errorf("server: node %s: announce loop already running", n.name)
	}
	if every <= 0 {
		every = time.Second
	}
	n.announceStop = make(chan struct{})
	n.announceDone = make(chan struct{})
	go n.announceLoop(routerAddr, every)
	return nil
}

// Joined reports whether the most recent announce was accepted (or
// answered "already a member").
func (n *Node) Joined() bool { return n.joined.Load() }

func (n *Node) announceLoop(routerAddr string, every time.Duration) {
	defer close(n.announceDone)
	c := transport.NewClient(routerAddr, transport.ClientConfig{})
	defer c.Close()
	//lint:allow wallclock announce cadence paces real network retries
	t := time.NewTicker(every)
	defer t.Stop()
	n.announceOnce(c)
	for {
		select {
		case <-n.announceStop:
			return
		case <-t.C:
			n.announceOnce(c)
		}
	}
}

// announceOnce sends one FrameJoin and records the verdict. CallOnce, not
// Call: the loop's own cadence is the retry policy, and doubling dials
// against a down router helps nobody.
func (n *Node) announceOnce(c *transport.Client) {
	req := joinReq{
		Name:   n.name,
		Addr:   n.Addr(),
		Shards: n.srv.Shards(),
		WALDir: n.srv.cfg.WALDir,
	}
	_, resp, err := c.CallOnce(FrameJoin, wal.Marshal(joinReqFields, &req))
	var jr joinResp
	if err == nil {
		err = wal.Unmarshal(joinRespFields, resp, "join response", &jr)
	}
	n.joined.Store(err == nil && (jr.Status == joinAccepted || jr.Status == joinAlreadyMember))
}

// Close stops the announce loop and the transport listener. The wrapped
// Server shuts down separately (Shutdown), so in-flight rounds finish
// cleanly.
func (n *Node) Close() error {
	if n.announceStop != nil {
		close(n.announceStop)
		<-n.announceDone
		n.announceStop = nil
		n.announceDone = nil
	}
	if n.ts == nil {
		return nil
	}
	return n.ts.Close()
}

// frameTimeout bounds the server work behind one frame; generous because
// adopt-time WAL replay is real work.
const frameTimeout = 30 * time.Second

// ServeFrame dispatches one cluster RPC. Implements transport.Handler;
// returning an error makes the transport answer with a FrameError frame.
func (n *Node) ServeFrame(typ byte, payload []byte) (byte, []byte, error) {
	//lint:allow wallclock RPC deadlines bound real I/O and replay work, not scheduling time
	ctx, cancel := context.WithTimeout(context.Background(), frameTimeout)
	defer cancel()
	switch typ {
	case FramePing:
		return FramePong, wal.Marshal(pongFields, &pong{Name: n.name}), nil

	case FramePublish:
		// Per-publish path: the description is called directly, not through
		// wal.Unmarshal's func value, so env stays on the stack.
		var env envelope
		c := wal.DecodeFrom(payload)
		envelopeFields(&c, &env)
		if err := c.Finish("publish request"); err != nil {
			return 0, nil, err
		}
		out := publishOutcome{status: publishAccepted, mapVer: n.srv.MapVersion()}
		switch err := n.srv.Publish(env.topic, env.user, env.item); {
		case err == nil:
		case err == ErrBackpressure:
			out.status = publishBackpressure
			out.retryAfter = retryAfterSeconds(n.srv.RetryAfter())
		case err == ErrNotOwner:
			out.status = publishNotOwner
		default:
			out.status = publishError
			out.errText = err.Error()
		}
		return FramePublishResp, wal.Marshal(publishOutcomeFields, &out), nil

	case FrameDeliveries:
		var req deliveriesReq
		if err := wal.Unmarshal(deliveriesReqFields, payload, "deliveries request", &req); err != nil {
			return 0, nil, err
		}
		resp := deliveriesResp{Owned: n.srv.Owns(n.srv.ShardFor(req.User))}
		if resp.Owned {
			resp.Deliveries = n.srv.Deliveries(req.User)
		}
		return FrameDeliveriesResp, wal.Marshal(deliveriesRespFields, &resp), nil

	case FrameTick:
		if err := n.srv.Tick(ctx); err != nil {
			return 0, nil, err
		}
		var resp tickResp
		for _, sn := range n.srv.Snapshots() {
			resp.Shards = append(resp.Shards, shardRound{Shard: sn.Shard, Round: sn.Round})
		}
		return FrameTickResp, wal.Marshal(tickRespFields, &resp), nil

	case FrameHealth:
		h := n.health()
		return FrameHealthResp, wal.Marshal(nodeHealthFields, &h), nil

	case FrameMapUpdate:
		m, err := cluster.Decode(payload)
		if err != nil {
			return 0, nil, err
		}
		if m.Shards != n.srv.Shards() {
			return 0, nil, fmt.Errorf("server: node %s: map has %d shards, this node runs %d", n.name, m.Shards, n.srv.Shards())
		}
		n.srv.SetMapVersion(m.Version)
		return FrameMapAck, wal.Marshal(mapAckFields, &mapAck{Version: m.Version}), nil

	case FrameFreeze:
		var req shardReq
		if err := wal.Unmarshal(shardReqFields, payload, "freeze request", &req); err != nil {
			return 0, nil, err
		}
		snap, state, err := n.srv.FreezeShard(req.Shard)
		if err != nil {
			return 0, nil, err
		}
		return FrameFreezeResp, wal.Marshal(frozenShardFields, &frozenShard{Snap: snap, State: state}), nil

	case FrameAdopt:
		var req adoptReq
		if err := wal.Unmarshal(adoptReqFields, payload, "adopt request", &req); err != nil {
			return 0, nil, err
		}
		var err error
		switch req.Mode {
		case adoptFromWAL:
			// Idempotent: a restarted coordinator re-commands the whole
			// assignment; shards this node already owns are a no-op.
			if !n.srv.Owns(req.Shard) {
				err = n.srv.AdoptShardFromWAL(req.Shard)
			}
		case adoptBytes:
			err = n.srv.AdoptShardBytes(req.Shard, req.Snap)
		default:
			err = fmt.Errorf("server: node %s: unknown adopt mode %d", n.name, req.Mode)
		}
		if err != nil {
			return 0, nil, err
		}
		return FrameAdoptResp, wal.Marshal(shardStateRespFields, &shardStateResp{State: n.srv.AdoptedState(req.Shard)}), nil

	case FrameShardState:
		var req shardReq
		if err := wal.Unmarshal(shardReqFields, payload, "shard state request", &req); err != nil {
			return 0, nil, err
		}
		state, err := n.srv.ShardState(ctx, req.Shard)
		if err != nil {
			return 0, nil, err
		}
		return FrameShardStateResp, wal.Marshal(shardStateRespFields, &shardStateResp{State: state}), nil

	case FrameStats:
		st := n.stats()
		return FrameStatsResp, wal.Marshal(nodeStatsFields, &st), nil

	default:
		return 0, nil, fmt.Errorf("server: node %s: unknown frame type %d", n.name, typ)
	}
}

// health assembles this node's wire health report.
func (n *Node) health() nodeHealth {
	h := nodeHealth{
		Name:       n.name,
		Role:       "node",
		MapVersion: n.srv.MapVersion(),
	}
	for _, sn := range n.srv.Snapshots() {
		h.Shards = append(h.Shards, shardRound{Shard: sn.Shard, Round: sn.Round})
		h.Users += sn.Users
		h.QueueDepth += sn.QueueDepth
		if sn.Err != "" {
			h.Errs = append(h.Errs, fmt.Sprintf("shard %d: %s", sn.Shard, sn.Err))
		}
	}
	return h
}

// stats merges the owned shards' reports and delay histograms into the
// node's wire stats.
func (n *Node) stats() nodeStats {
	s := nodeStats{
		Backpressured: n.srv.Backpressured(),
		Dropped:       n.srv.Dropped(),
	}
	for _, sn := range n.srv.Snapshots() {
		s.Report.Merge(sn.Report)
		if merged, err := metrics.MergeBuckets(s.DelayBuckets, sn.DelayBuckets); err == nil {
			s.DelayBuckets = merged
		}
	}
	return s
}
