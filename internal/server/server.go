// Package server implements richnote-serve: an online delivery-service
// runtime that runs the paper's Algorithm 2 control loop against wall-clock
// rounds and concurrent HTTP ingest instead of replayed traces.
//
// Users are partitioned across N independent scheduler shards by
// consistent hashing on notif.UserID. Each shard owns its users' pub/sub
// buffers, scheduling queues Q(t), virtual energy queues P(t) and
// device/network state, and runs the round loop — drain round-mode broker
// buffers, build the adjusted-utility MCKP instance, select greedily,
// charge device budgets, record outcomes — on a configurable wall-clock
// tick. Shard state is goroutine-confined: the HTTP layer talks to a shard
// only through its bounded ingest queue (backpressure: 429 once the
// backlog reaches a high-water mark) and reads only atomically published
// snapshots, so no scheduling structure is ever locked on the hot path.
//
// Wall-clock ticks pace the loop; budget and battery accounting advance in
// virtual time (one VirtualRound, an hour by default, per tick), so a
// server ticking every second compresses a paper round per second rather
// than starving every device of budget.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/utility"
	"github.com/richnote/richnote/internal/wal"
)

// UserConfig describes one registered device; Config.Default is the
// template applied to users auto-registered on first publish.
type UserConfig = core.UserConfig

// Config configures the service.
type Config struct {
	// Shards is the number of independent scheduler shards; defaults to 4.
	Shards int
	// RoundEvery is the wall-clock tick driving each shard's round loop.
	// Zero disables self-ticking: rounds advance only through Tick (manual
	// mode, used by tests and drained on shutdown either way).
	RoundEvery time.Duration
	// VirtualRound is the round length in virtual time, used for data
	// budget accrual, battery diurnal cycles and delivery timestamps;
	// defaults to one hour (the paper's round). Decoupling it from
	// RoundEvery lets a wall-clock server tick fast without shrinking
	// per-round budgets to nothing.
	VirtualRound time.Duration
	// Epoch anchors virtual time; defaults to 2015-01-01 UTC.
	Epoch time.Time
	// IngestBuffer bounds the per-shard publication backlog; defaults to
	// 1024. Nothing is allocated for it up front: the queue grows with the
	// backlog actually seen.
	IngestBuffer int
	// HighWater is the ingest depth at which the shard starts rejecting
	// publishes with 429; defaults to 3/4 of IngestBuffer and never
	// exceeds it.
	HighWater int
	// RecentDeliveries bounds the per-user delivery feed; defaults to 32.
	RecentDeliveries int
	// Scorer provides content utility Uc for incoming items; defaults to a
	// neutral constant scorer. Must be safe for concurrent use (shards
	// share it).
	Scorer utility.ContentScorer
	// Generator builds presentation ladders; defaults to the paper's
	// six-level audio generator. Must be safe for concurrent use.
	Generator media.Generator
	// Seed drives per-user randomness (network walks, battery jitter).
	Seed int64
	// Faults injects per-transfer failures into every device, with
	// deterministic per-user outcome streams derived from Seed. The zero
	// value injects none and keeps the delivery path identical to a
	// fault-free build.
	Faults network.FaultConfig
	// Default is the template for users auto-registered on first publish.
	Default UserConfig
	// DisableAutoRegister drops publications for unknown users instead of
	// registering them with the Default template.
	DisableAutoRegister bool
	// Users are registered at construction time.
	Users []UserConfig

	// WALDir enables crash recovery (DESIGN.md §12): each shard keeps an
	// append-only log of accepted publishes and round outcomes plus
	// periodic compacted snapshots under this directory, and New restores
	// from them when present. Empty disables durability entirely — the
	// round loop then runs byte-identically to a build without WAL support.
	WALDir string
	// WALFsync selects when log records reach stable storage; defaults to
	// wal.SyncRound (fsync once per round).
	WALFsync wal.SyncPolicy
	// SnapshotEvery compacts the log into a snapshot every N rounds;
	// defaults to 64. Smaller values bound replay time, larger values
	// reduce snapshot I/O.
	SnapshotEvery int

	// OwnedShards restricts this process to a subset of the shard space
	// (cluster node mode, DESIGN.md §13). nil means own everything — the
	// standalone behavior, bit-identical to a build without cluster
	// support. A non-nil (possibly empty) list owns exactly those shards:
	// only they get WAL files, goroutines and users; publishes routed to
	// any other shard return ErrNotOwner so the caller (the router) can
	// forward them to the owning node. Shards outside the list can still
	// be adopted later via AdoptShardBytes/AdoptShardFromWAL.
	OwnedShards []int
}

func (c *Config) applyDefaults() error {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 1 {
		return fmt.Errorf("server: shards must be >= 1, got %d", c.Shards)
	}
	if c.RoundEvery < 0 {
		return fmt.Errorf("server: negative round interval %s", c.RoundEvery)
	}
	if c.IngestBuffer <= 0 {
		c.IngestBuffer = 1024
	}
	if c.HighWater <= 0 {
		c.HighWater = c.IngestBuffer * 3 / 4
	}
	if c.HighWater > c.IngestBuffer {
		c.HighWater = c.IngestBuffer
	}
	if c.RecentDeliveries <= 0 {
		c.RecentDeliveries = 32
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.WALFsync == 0 {
		c.WALFsync = wal.SyncRound
	}
	if err := c.WALFsync.Validate(); err != nil {
		return err
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 64
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("server: negative snapshot interval %d", c.SnapshotEvery)
	}
	return nil
}

// Server lifecycle states.
const (
	stateNew = iota
	stateStarted
	stateStopping
)

// Server is the sharded delivery service.
type Server struct {
	cfg      Config
	ring     *ring
	shards   []*shard
	enricher *utility.Enricher

	state    atomic.Int32
	stopOnce sync.Once

	// adopted records the canonical state bytes each adopted shard restored
	// to, keyed by shard id — the byte string handoff tests compare against
	// the source's final snapshot.
	adoptedMu sync.Mutex
	adopted   map[int][]byte

	// Cluster identity surfaced on /healthz: the role label ("standalone"
	// unless the CLI sets router/node) and the version of the last cluster
	// map this process acknowledged.
	role       atomic.Value  // richnote:atomic
	mapVersion atomic.Uint64 // richnote:atomic
}

// Role returns the cluster role label; "standalone" unless SetRole was
// called.
func (s *Server) Role() string {
	if v := s.role.Load(); v != nil {
		return v.(string)
	}
	return "standalone"
}

// SetRole labels this process's cluster role for /healthz.
func (s *Server) SetRole(role string) { s.role.Store(role) }

// MapVersion returns the last acknowledged cluster map version (0 when
// standalone).
func (s *Server) MapVersion() uint64 { return s.mapVersion.Load() }

// SetMapVersion records a newly acknowledged cluster map version.
func (s *Server) SetMapVersion(v uint64) { s.mapVersion.Store(v) }

// New validates the configuration, builds the shards and registers any
// configured users. Call Start to begin serving rounds.
func New(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	enricher, err := core.NewEnricher(cfg.Scorer, cfg.Generator)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ring:     newRing(cfg.Shards, 0),
		enricher: enricher,
		adopted:  make(map[int][]byte),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, s))
	}
	// Ownership: nil OwnedShards owns everything (standalone); a list owns
	// exactly those shards. Everything below — WAL restore, registration,
	// compaction, Start — iterates owned shards only.
	if cfg.OwnedShards == nil {
		for _, sh := range s.shards {
			sh.owned.Store(true)
		}
	} else {
		if cfg.WALDir == "" {
			return nil, errors.New("server: cluster node mode (OwnedShards set) requires WALDir — shard handoff ships WAL snapshots")
		}
		for _, id := range cfg.OwnedShards {
			if id < 0 || id >= cfg.Shards {
				return nil, fmt.Errorf("server: owned shard %d out of range [0,%d)", id, cfg.Shards)
			}
			s.shards[id].owned.Store(true)
		}
	}
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: wal dir: %w", err)
		}
	}
	// Pre-registered users go onto their shard; users routed to unowned
	// shards are skipped: the owning node registers them from its own
	// config.
	users := make([][]UserConfig, cfg.Shards)
	for _, uc := range cfg.Users {
		id := s.ring.shardFor(uc.User)
		users[id] = append(users[id], uc)
	}
	for _, sh := range s.shards {
		if !sh.owned.Load() {
			continue
		}
		if err := sh.open(users[sh.id]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Start launches the goroutines of the owned shards. It is an error to
// start twice.
func (s *Server) Start() error {
	if !s.state.CompareAndSwap(stateNew, stateStarted) {
		return errors.New("server: already started")
	}
	for _, sh := range s.shards {
		if !sh.owned.Load() {
			continue
		}
		sh.started.Store(true)
		go sh.run(s.cfg.RoundEvery)
	}
	return nil
}

// Tick forces one synchronized round on every shard and waits for all of
// them to finish, returning the first round error. It works in both manual
// and wall-clock modes.
func (s *Server) Tick(ctx context.Context) error {
	if s.state.Load() != stateStarted {
		return errors.New("server: not running")
	}
	var replies []chan error
	for _, sh := range s.shards {
		if !sh.started.Load() {
			continue // unowned or frozen: nothing to tick
		}
		reply := make(chan error, 1)
		select {
		case sh.ticks <- tickReq{reply: reply}:
			replies = append(replies, reply)
		case <-sh.doneCh():
			// Frozen or crashed between the started check and the send;
			// its rounds now belong to another node.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	var firstErr error
	for _, reply := range replies {
		select {
		case err := <-reply:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return firstErr
}

// Shutdown gracefully stops the shards: each drains its queued ingest,
// runs a final round so accepted publications get their delivery
// opportunity, and exits. It returns once every shard has finished or the
// context expires.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.state.Load() == stateNew {
		return nil
	}
	s.state.Store(stateStopping)
	s.stopOnce.Do(func() {
		for _, sh := range s.shards {
			close(sh.stop)
		}
	})
	for _, sh := range s.shards {
		if !sh.started.Load() {
			continue // never ran (unowned): no goroutine to wait for
		}
		select {
		case <-sh.doneCh():
		case <-ctx.Done():
			return fmt.Errorf("server: shutdown: shard %d still draining: %w", sh.id, ctx.Err())
		}
	}
	return nil
}

// CrashStop kills the shard goroutines without draining: no final round,
// no snapshot flush, buffered (un-synced) log records discarded — the
// in-process emulation of kill -9. Crash-recovery tests use it to exercise
// the restore path; production shutdown is Shutdown.
func (s *Server) CrashStop() {
	if s.state.Load() == stateNew {
		return
	}
	s.state.Store(stateStopping)
	s.stopOnce.Do(func() {
		for _, sh := range s.shards {
			close(sh.crash)
		}
	})
	for _, sh := range s.shards {
		if !sh.started.Load() {
			continue
		}
		<-sh.doneCh()
	}
}

// Publish routes one publication to its recipient's shard. It returns
// ErrBackpressure when the shard's ingest queue is at the high-water mark
// (the HTTP layer maps this to 429 + Retry-After), and ErrNotOwner when
// the shard is not owned here or a freeze closed its queue first.
func (s *Server) Publish(topic pubsub.TopicID, recipient notif.UserID, item notif.Item) error {
	if recipient == 0 {
		return errors.New("server: publication has no recipient")
	}
	sh := s.shards[s.ring.shardFor(recipient)]
	if !sh.owned.Load() {
		return ErrNotOwner
	}
	err := sh.ingest.push(envelope{topic: topic, user: recipient, item: item}, s.cfg.HighWater)
	if err == ErrBackpressure {
		sh.backpressured.Add(1)
	}
	return err
}

// ErrBackpressure signals that a shard's ingest queue is saturated.
var ErrBackpressure = errors.New("server: shard ingest over high-water mark")

// ErrNotOwner signals that the recipient's shard is not owned by this
// process; the router maps it to a forward to the owning node.
var ErrNotOwner = errors.New("server: shard not owned by this node")

// Deliveries returns a user's recent deliveries, newest last.
func (s *Server) Deliveries(user notif.UserID) []notif.Delivery {
	return s.shards[s.ring.shardFor(user)].Deliveries(user)
}

// SnapshotEvery reports the effective snapshot cadence (rounds between
// compacted WAL snapshots) after defaulting.
func (s *Server) SnapshotEvery() int { return s.cfg.SnapshotEvery }

// Snapshots returns the latest per-shard views of the owned shards, in
// shard order (all shards in standalone mode). Each entry is a deep copy:
// the published snapshot's reference fields (DelayBuckets,
// Report.LevelCounts) are cloned so one reader mutating its result cannot
// corrupt what other readers — or the next publish — observe.
func (s *Server) Snapshots() []ShardSnapshot {
	out := make([]ShardSnapshot, 0, len(s.shards))
	for _, sh := range s.shards {
		if !sh.owned.Load() {
			continue
		}
		out = append(out, sh.snapshot().clone())
	}
	return out
}

// ShardFor maps a user to its shard index — the same consistent-hash ring
// every node and router computes, so routing decisions agree everywhere.
func (s *Server) ShardFor(user notif.UserID) int { return s.ring.shardFor(user) }

// Owns reports whether this process currently owns a shard.
func (s *Server) Owns(shard int) bool {
	return shard >= 0 && shard < len(s.shards) && s.shards[shard].owned.Load()
}

// OwnedShardIDs returns the ascending list of shards this process owns.
func (s *Server) OwnedShardIDs() []int {
	owned := []int{}
	for _, sh := range s.shards {
		if sh.owned.Load() {
			owned = append(owned, sh.id)
		}
	}
	return owned
}

// clone deep-copies the snapshot's reference fields. Lyapunov and the
// remaining Report fields are value types and copy with the struct.
func (sn *ShardSnapshot) clone() ShardSnapshot {
	out := *sn
	out.DelayBuckets = append([]metrics.Bucket(nil), sn.DelayBuckets...)
	if sn.Report.LevelCounts != nil {
		lc := make(map[int]int, len(sn.Report.LevelCounts))
		for k, v := range sn.Report.LevelCounts {
			lc[k] = v
		}
		out.Report.LevelCounts = lc
	}
	return out
}

// Backpressured sums publishes turned away by ingest overload (HTTP 429)
// across shards.
func (s *Server) Backpressured() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.backpressured.Load()
	}
	return total
}

// Dropped sums publications discarded inside the shards — unknown users
// with auto-registration disabled, or registration/subscription failures —
// across shards. Distinct from Backpressured: these were accepted over HTTP
// but could not be routed to a device.
func (s *Server) Dropped() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.droppedIngest.Load()
	}
	return total
}

// RetryAfter suggests how long a backpressured client should wait: one
// wall-clock round when self-ticking, else one second.
func (s *Server) RetryAfter() time.Duration {
	if s.cfg.RoundEvery > 0 {
		return s.cfg.RoundEvery
	}
	return time.Second
}
