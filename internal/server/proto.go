package server

import (
	"sort"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/wal"
)

// The cluster RPC set carried over internal/transport frames (DESIGN.md
// §13). Requests are even-numbered responses minus one. Every payload is a
// named type below (or in walstate.go, for the ones shared with the log)
// whose bytes are defined by its one Fields function; ping, tick, health
// and stats requests carry no payload, and a map update carries
// cluster.Map's own encoding. The transport reserves 0xFF for handler
// errors.
const (
	FramePing           byte = 1
	FramePong           byte = 2
	FramePublish        byte = 3
	FramePublishResp    byte = 4
	FrameDeliveries     byte = 5
	FrameDeliveriesResp byte = 6
	FrameTick           byte = 7
	FrameTickResp       byte = 8
	FrameHealth         byte = 9
	FrameHealthResp     byte = 10
	FrameMapUpdate      byte = 11
	FrameMapAck         byte = 12
	FrameFreeze         byte = 13
	FrameFreezeResp     byte = 14
	FrameAdopt          byte = 15
	FrameAdoptResp      byte = 16
	FrameShardState     byte = 17
	FrameShardStateResp byte = 18
	FrameStats          byte = 19
	FrameStatsResp      byte = 20
	FrameJoin           byte = 21
	FrameJoinResp       byte = 22
)

// Publish-forward outcome codes (FramePublishResp status byte).
const (
	publishAccepted     = 0
	publishBackpressure = 1
	publishNotOwner     = 2
	publishError        = 3
)

// Adopt modes (FrameAdopt mode byte).
const (
	adoptFromWAL byte = 0 // crash takeover: restore from shared-storage files
	adoptBytes   byte = 1 // planned handoff: snapshot bytes ride the frame
)

// Join outcome codes (FrameJoinResp status byte).
const (
	joinAccepted      byte = 0 // admitted; the coordinator schedules the rebalance
	joinAlreadyMember byte = 1 // live at this address already; announces are idempotent
	joinRejected      byte = 2 // validation failed; ErrText says why
)

// pong answers a ping with the responder's name (FramePong).
type pong struct{ Name string }

func pongFields(c *wal.Codec, p *pong) { c.Str(&p.Name) }

// publishOutcome is the FramePublishResp payload. (The FramePublish
// request is an envelope — the same bytes the shard then logs.)
type publishOutcome struct {
	status     byte
	retryAfter int // seconds, meaningful for backpressure
	mapVer     uint64
	errText    string
}

func publishOutcomeFields(c *wal.Codec, o *publishOutcome) {
	c.U8(&o.status)
	c.IntU32(&o.retryAfter)
	c.U64(&o.mapVer)
	c.Str(&o.errText)
}

// deliveriesReq asks for one user's recent deliveries (FrameDeliveries).
type deliveriesReq struct{ User notif.UserID }

func deliveriesReqFields(c *wal.Codec, q *deliveriesReq) { wal.Int(c, &q.User) }

// deliveriesResp is the FrameDeliveriesResp payload; Owned is false when
// the node no longer serves the user's shard.
type deliveriesResp struct {
	Owned      bool
	Deliveries []notif.Delivery
}

func deliveriesRespFields(c *wal.Codec, r *deliveriesResp) {
	c.Bool(&r.Owned)
	wal.Slice(c, &r.Deliveries, 80, "deliveries", deliveryFields)
}

// shardRound reports one owned shard's completed-round count.
type shardRound struct{ Shard, Round int }

func shardRoundFields(c *wal.Codec, s *shardRound) {
	c.IntU32(&s.Shard)
	wal.Int(c, &s.Round)
}

// tickResp is the FrameTickResp payload: where every owned shard stands
// after the tick.
type tickResp struct{ Shards []shardRound }

func tickRespFields(c *wal.Codec, t *tickResp) {
	wal.Slice(c, &t.Shards, 12, "tick rounds", shardRoundFields)
}

// nodeHealth is one node's health report (FrameHealthResp).
type nodeHealth struct {
	Name       string
	Role       string
	MapVersion uint64
	Shards     []shardRound // the owned shards
	Users      int
	QueueDepth int
	Errs       []string
}

func nodeHealthFields(c *wal.Codec, h *nodeHealth) {
	c.Str(&h.Name)
	c.Str(&h.Role)
	c.U64(&h.MapVersion)
	wal.Slice(c, &h.Shards, 12, "owned shards", shardRoundFields)
	c.IntU32(&h.Users)
	c.IntU32(&h.QueueDepth)
	wal.Slice(c, &h.Errs, 4, "health errors", (*wal.Codec).Str)
}

// mapAck acknowledges a map update with the version now in force
// (FrameMapAck).
type mapAck struct{ Version uint64 }

func mapAckFields(c *wal.Codec, a *mapAck) { c.U64(&a.Version) }

// shardReq names the shard a FrameFreeze or FrameShardState acts on.
type shardReq struct{ Shard int }

func shardReqFields(c *wal.Codec, q *shardReq) { c.IntU32(&q.Shard) }

// frozenShard is the FrameFreezeResp payload: the final compacted
// snapshot file (what ships to the adopting node) and the canonical state
// bytes at freeze (what the adopter's restored state must equal).
type frozenShard struct{ Snap, State []byte }

func frozenShardFields(c *wal.Codec, f *frozenShard) {
	c.Blob(&f.Snap)
	c.Blob(&f.State)
}

// adoptReq commands a node to take a shard over (FrameAdopt). Snap rides
// only in adoptBytes mode.
type adoptReq struct {
	Shard int
	Mode  byte
	Snap  []byte
}

func adoptReqFields(c *wal.Codec, q *adoptReq) {
	c.IntU32(&q.Shard)
	c.U8(&q.Mode)
	if q.Mode == adoptBytes {
		c.Blob(&q.Snap)
	}
}

// shardStateResp carries a shard's canonical state bytes
// (FrameAdoptResp, FrameShardStateResp).
type shardStateResp struct{ State []byte }

func shardStateRespFields(c *wal.Codec, r *shardStateResp) { c.Blob(&r.State) }

// joinReq is a node's announce payload (DESIGN.md §15): its identity, the
// transport address it serves, and the agreement checks the coordinator
// validates before admitting it.
type joinReq struct {
	Name   string
	Addr   string
	Shards int
	WALDir string
}

func joinReqFields(c *wal.Codec, j *joinReq) {
	c.Str(&j.Name)
	c.Str(&j.Addr)
	c.IntU32(&j.Shards)
	c.Str(&j.WALDir)
}

// joinResp is the coordinator's verdict on an announce.
type joinResp struct {
	Status     byte
	MapVersion uint64
	ErrText    string
}

func joinRespFields(c *wal.Codec, j *joinResp) {
	c.U8(&j.Status)
	c.U64(&j.MapVersion)
	c.Str(&j.ErrText)
}

// nodeStats is the wire form of one node's FrameStatsResp: the merged
// report + delay histogram of its owned shards plus the ingest rejection
// counters, ready for the router's Report.Merge/MergeBuckets aggregation.
type nodeStats struct {
	Report        metrics.Report
	DelayBuckets  []metrics.Bucket
	Backpressured uint64
	Dropped       uint64
}

func nodeStatsFields(c *wal.Codec, s *nodeStats) {
	reportFields(c, &s.Report)
	wal.Slice(c, &s.DelayBuckets, 16, "buckets", func(c *wal.Codec, b *metrics.Bucket) {
		c.F64(&b.UpperBound)
		c.U64(&b.Count)
	})
	c.U64(&s.Backpressured)
	c.U64(&s.Dropped)
}

// reportFields describes a metrics.Report. LevelCounts rides as
// (level, count) pairs in ascending level order, so identical reports
// encode identically.
func reportFields(c *wal.Codec, r *metrics.Report) {
	wal.Int(c, &r.Users)
	wal.Int(c, &r.Arrived)
	wal.Int(c, &r.ClickedTotal)
	wal.Int(c, &r.Delivered)
	c.I64(&r.DeliveredBytes)
	c.F64(&r.UtilitySum)
	c.F64(&r.TrueUtilitySum)
	wal.Int(c, &r.ClickedAndDelivered)
	wal.Int(c, &r.DeliveredBeforeClick)
	c.F64(&r.EnergyJ)
	wal.Int(c, &r.DelayRoundsSum)
	levels := make([]metrics.LevelCount, 0, len(r.LevelCounts))
	for lvl, n := range r.LevelCounts {
		levels = append(levels, metrics.LevelCount{Level: lvl, Count: n})
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i].Level < levels[j].Level })
	wal.Slice(c, &levels, 16, "level counts", core.LevelCountFields)
	if c.Decoding() && len(levels) > 0 {
		r.LevelCounts = make(map[int]int, len(levels))
		for _, lc := range levels {
			r.LevelCounts[lc.Level] = lc.Count
		}
	}
	wal.Int(c, &r.TransferFailures)
	wal.Int(c, &r.RetriedDeliveries)
	wal.Int(c, &r.DegradedDeliveries)
	wal.Int(c, &r.Dropped)
	c.F64(&r.WastedEnergyJ)
	c.F64(&r.DelayP50Rounds)
	c.F64(&r.DelayP95Rounds)
}
