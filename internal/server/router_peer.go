package server

import (
	"sort"
	"sync/atomic"

	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/wal"
)

// view is everything the HTTP data plane needs to route one request: the
// map, the live set it was computed over and the node registry. The
// coordinator builds a fresh one after every transition and publishes it
// through Router.view; a view is never modified after that, so handlers
// load it once per request and read it without a lock. live is the live
// set as of the last transition.
type view struct {
	m     *cluster.Map
	live  []cluster.Node
	peers map[string]*peer // node name → peer, every node ever registered
}

// names returns every registered node name, sorted.
func (v *view) names() []string {
	names := make([]string, 0, len(v.peers))
	for name := range v.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// peer is one shard-owner node as the router sees it. The coordinator
// registers peers and re-addresses them; the data plane only calls
// through them, so the three mutable parts are each their own atomic.
// Every frame the router sends has its request/response codec in exactly
// one method below.
type peer struct {
	name      string
	client    atomic.Pointer[transport.Client] // richnote:atomic — swapped when the node rejoins on a new address
	forwarded atomic.Uint64                    // richnote:atomic — publishes forwarded
	up        atomic.Bool                      // richnote:atomic — last probe/forward verdict
}

// newPeer builds a peer presumed up; no connection is made until the
// first call.
func newPeer(n cluster.Node, cfg transport.ClientConfig) *peer {
	p := &peer{name: n.Name}
	p.client.Store(transport.NewClient(n.Addr, cfg))
	p.up.Store(true)
	return p
}

func (p *peer) addr() string { return p.client.Load().Addr() }

func (p *peer) close() { p.client.Load().Close() }

// ask is one request/response exchange decoded under the response's one
// description.
func ask[T any](p *peer, typ byte, req []byte, fields func(*wal.Codec, *T), what string) (resp T, err error) {
	_, raw, err := p.client.Load().Call(typ, req)
	if err != nil {
		return resp, err
	}
	err = wal.Unmarshal(fields, raw, what, &resp)
	return resp, err
}

// ping is the health probe and the join dial-back: one small frame
// through the same pooled client the data path uses, so "healthy" means
// the path requests take is healthy.
func (p *peer) ping() (pong, error) { return ask(p, FramePing, nil, pongFields, "pong") }

func (p *peer) health() (nodeHealth, error) {
	return ask(p, FrameHealth, nil, nodeHealthFields, "health response")
}

func (p *peer) tick() (tickResp, error) {
	return ask(p, FrameTick, nil, tickRespFields, "tick response")
}

func (p *peer) stats() (nodeStats, error) {
	return ask(p, FrameStats, nil, nodeStatsFields, "stats response")
}

func (p *peer) deliveries(user notif.UserID) (deliveriesResp, error) {
	req := wal.Marshal(deliveriesReqFields, &deliveriesReq{User: user})
	return ask(p, FrameDeliveries, req, deliveriesRespFields, "deliveries response")
}

// publish forwards one envelope. The error is transport-level only; a
// reply that does not decode comes back as a publishError outcome.
func (p *peer) publish(env *envelope) (publishOutcome, error) {
	_, raw, err := p.client.Load().Call(FramePublish, wal.Marshal(envelopeFields, env))
	if err != nil {
		return publishOutcome{}, err
	}
	var out publishOutcome
	d := wal.DecodeFrom(raw) // direct call: out stays on the stack, as in Node.ServeFrame
	publishOutcomeFields(&d, &out)
	if err := d.Finish("publish response"); err != nil {
		return publishOutcome{status: publishError, errText: err.Error()}, nil
	}
	return out, nil
}

// sendMap ships an encoded map; the ack carries nothing the router needs.
func (p *peer) sendMap(payload []byte) error {
	_, err := ask(p, FrameMapUpdate, payload, mapAckFields, "map ack")
	return err
}

// adopt commands the node to take a shard over — from shared storage
// (crash takeover) or from the snapshot bytes riding the request (planned
// handoff) — and returns the canonical state bytes it restored to.
func (p *peer) adopt(req adoptReq) ([]byte, error) {
	resp, err := ask(p, FrameAdopt, wal.Marshal(adoptReqFields, &req), shardStateRespFields, "adopt response")
	return resp.State, err
}

// freeze takes a shard out of service on the node. froze reports whether
// the node did freeze: it is true with a non-nil err when the node
// replied but the reply is garbled, and the caller must then put the
// state back somewhere.
func (p *peer) freeze(shard int) (f frozenShard, froze bool, err error) {
	_, raw, err := p.client.Load().Call(FrameFreeze, wal.Marshal(shardReqFields, &shardReq{Shard: shard}))
	if err != nil {
		return f, false, err
	}
	err = wal.Unmarshal(frozenShardFields, raw, "freeze response", &f)
	return f, true, err
}
