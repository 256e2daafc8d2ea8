package server

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/obs"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/wal"
)

// envelope is one routed publication: a topic plus the item, addressed to
// a single recipient on this shard.
type envelope struct {
	topic pubsub.TopicID
	user  notif.UserID
	item  notif.Item
}

// ingestQueue is a shard's bounded publication backlog. Publishers append
// under mu; the shard goroutine takes everything queued in one swap
// (shard.drainIngest) and hands the slice back on its next take, so in
// steady state no push allocates. Nothing is reserved up front: each of
// the two buffers grows with the largest backlog actually seen, to at
// most Config.HighWater envelopes, and a slot that never receives a
// publish costs nothing.
type ingestQueue struct {
	mu sync.Mutex
	// items is the backlog in push order. spare is the batch the last take
	// handed to the shard goroutine; the next take returns it, emptied, as
	// the new backlog. Both are touched only under mu.
	items  []envelope
	spare  []envelope
	closed bool // set by FreezeShard: a push after it returns ErrNotOwner

	// depth counts envelopes from their push until accept has logged them
	// and handed them to the engine, a taken but unfinished batch
	// included, so depth 0 means every acknowledged publish is in the log
	// (with one) and in the engine. It is the high-water test's operand and
	// the richnote_shard_ingest_depth gauge.
	depth atomic.Int64 // richnote:atomic

	// wake holds a token whenever the backlog may be non-empty: push
	// signals it on the empty to non-empty edge only, and the shard
	// goroutine drains on receipt. A stale token costs one empty take.
	wake chan struct{}
}

// ingestGrowMin is the smallest capacity a queue buffer grows to: the
// default IngestBuffer's worth. Beyond it a full buffer grows fourfold, up
// to the high-water mark, so a backlog that keeps deepening reallocates a
// few times rather than at every doubling. A queue that never receives
// allocates nothing.
const ingestGrowMin = 1024

// push appends one envelope unless the queue is closed (ErrNotOwner) or
// holds highWater envelopes (ErrBackpressure). The test and the append
// share one critical section, so depth never exceeds highWater.
func (q *ingestQueue) push(env envelope, highWater int) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrNotOwner
	}
	if q.depth.Load() >= int64(highWater) {
		q.mu.Unlock()
		return ErrBackpressure
	}
	if len(q.items) == cap(q.items) {
		grown := make([]envelope, len(q.items), min(max(4*len(q.items), ingestGrowMin), highWater))
		copy(grown, q.items)
		q.items = grown
	}
	q.items = append(q.items, env)
	q.depth.Add(1)
	first := len(q.items) == 1
	q.mu.Unlock()
	if first {
		select {
		case q.wake <- struct{}{}:
		default: // a token is already pending
		}
	}
	return nil
}

// take returns the backlog in push order and leaves the previous batch,
// which the caller has finished with and cleared, as the new backlog.
// Called on the shard goroutine only.
func (q *ingestQueue) take() []envelope {
	q.mu.Lock()
	batch := q.items
	q.items = q.spare[:0]
	q.spare = batch
	q.mu.Unlock()
	return batch
}

// setClosed opens or closes the queue to pushes.
func (q *ingestQueue) setClosed(closed bool) {
	q.mu.Lock()
	q.closed = closed
	q.mu.Unlock()
}

// tickReq is a synchronous round request: the shard runs one round and
// replies with its error.
type tickReq struct {
	reply chan error
}

// freezeReq asks the shard to stop serving and hand its state over
// (cluster handoff, handoff.go): drain ingest, compact into a final
// snapshot, close the log and exit. The reply carries the snapshot file
// bytes (what ships to the adopting node) and the canonical state bytes
// at freeze (what handoff tests compare against the adopter).
type freezeReq struct {
	reply chan freezeResp
}

type freezeResp struct {
	snapBytes []byte
	state     []byte
	err       error
}

// shard hosts one core.Engine — which owns a disjoint subset of users:
// their pub/sub buffers, scheduling queues Q(t), virtual energy queues
// P(t), device/network/battery state and the round procedure — on its own
// goroutine, and adds what a service needs around it: the ingest queue,
// the tick and freeze channels, the write-ahead log, the recent-delivery
// feeds and the published read-side snapshot. The engine and the rest of
// the confined state are touched only by the shard goroutine started by
// run; the HTTP layer communicates through the ingest queue and reads only
// the atomically published ShardSnapshot and the mutex-guarded feeds.
type shard struct {
	id  int
	srv *Server

	// Goroutine-confined state: richnote-lint's confined analyzer enforces
	// that only shard methods touch these.
	eng     *core.Engine  // richnote:confined(shard)
	rec     *obs.Recorder // richnote:confined(shard)
	lastErr error         // richnote:confined(shard)

	// pendingFeed batches the round's confirmed deliveries so feedMu is
	// taken once per round (flushFeeds) instead of once per delivery.
	pendingFeed []notif.Delivery // richnote:confined(shard)

	// Durability state (walstate.go), active when Config.WALDir is set:
	// the per-shard append-only log, reusable encode scratch for log
	// records and snapshots, and the replay flag that keeps recovery from
	// re-logging the records it is replaying.
	log       *wal.Writer // richnote:confined(shard)
	walEnc    wal.Codec   // richnote:confined(shard)
	snapEnc   wal.Codec   // richnote:confined(shard)
	replaying bool        // richnote:confined(shard)

	ingest ingestQueue
	ticks  chan tickReq
	freeze chan freezeReq
	stateq chan chan []byte
	stop   chan struct{}
	crash  chan struct{}

	// done is closed by the shard goroutine on exit. Its identity is the
	// one piece of slot lifecycle that changes across a recycle (the old
	// channel is closed and a re-adopted slot needs a fresh one), so every
	// reader goes through doneCh and the replacement happens under doneMu.
	doneMu sync.Mutex
	done   chan struct{}

	// owned gates the publish path: only an owned shard accepts envelopes
	// (ErrNotOwner otherwise) and appears in Snapshots. started records
	// whether the shard goroutine was ever launched, so shutdown paths
	// know which done channels will actually close. Both flip during the
	// cluster handoff protocol (handoff.go). frozen marks a slot this
	// process froze for a planned handoff whose goroutine has fully
	// exited — the one non-virgin state adoptable may recycle, so a failed
	// move can roll the shard back without a process restart.
	owned   atomic.Bool // richnote:atomic
	started atomic.Bool // richnote:atomic
	frozen  atomic.Bool // richnote:atomic

	// backpressured counts publishes turned away with HTTP 429 because the
	// ingest queue reached the high-water mark (overload); droppedIngest
	// counts publications accepted into the shard but discarded there —
	// unknown users with auto-registration disabled, registration/
	// subscription failures (misrouted traffic), or items enrichment
	// rejects at the round boundary (a kind no generator handles). Split so
	// /metrics can distinguish "we are overloaded" from "someone is
	// publishing garbage".
	backpressured atomic.Uint64 // richnote:atomic
	droppedIngest atomic.Uint64 // richnote:atomic

	snap atomic.Pointer[ShardSnapshot] // richnote:atomic

	feedMu sync.Mutex
	feeds  map[notif.UserID]*feedRing
}

// feedRing is one user's recent-delivery feed: the newest
// Config.RecentDeliveries deliveries. buf grows to the cap with the
// user's first deliveries, then each new one overwrites the oldest in
// place, so a delivery costs O(1) and a full feed holds exactly its cap.
type feedRing struct {
	buf  []notif.Delivery
	next int // once buf is full, the oldest entry and the next to overwrite
}

// push records d as the newest entry, evicting the oldest beyond limit.
func (f *feedRing) push(d *notif.Delivery, limit int) {
	if len(f.buf) < limit {
		if len(f.buf) == cap(f.buf) {
			grown := make([]notif.Delivery, len(f.buf), min(max(2*cap(f.buf), 4), limit))
			copy(grown, f.buf)
			f.buf = grown
		}
		f.buf = append(f.buf, *d)
		return
	}
	f.buf[f.next] = *d
	if f.next++; f.next == len(f.buf) {
		f.next = 0
	}
}

// segments returns the feed oldest first as two runs: older, then newer.
func (f *feedRing) segments() (older, newer []notif.Delivery) {
	if f == nil {
		return nil, nil
	}
	return f.buf[f.next:], f.buf[:f.next]
}

// ordered rotates the ring in place so buf holds the feed oldest first,
// and returns it. Called under feedMu; nothing a reader sees changes.
func (f *feedRing) ordered() []notif.Delivery {
	if f.next != 0 {
		slices.Reverse(f.buf[:f.next])
		slices.Reverse(f.buf[f.next:])
		slices.Reverse(f.buf)
		f.next = 0
	}
	return f.buf
}

// ShardSnapshot is the read side of a shard, published atomically at
// startup and after every round so HTTP handlers never touch live
// scheduling state.
type ShardSnapshot struct {
	Shard int
	// Round is the number of completed rounds.
	Round int
	Users int
	// QueueDepth sums the scheduling-queue lengths across the shard's
	// devices; BrokerPending counts publications held for their feed's
	// cadence round, one per accepted envelope.
	QueueDepth    int
	BrokerPending int
	// Backpressured counts publishes rejected for ingest overload (429);
	// Dropped counts publications discarded in-shard (unknown user with
	// auto-registration disabled, registration/subscription failures, or
	// items enrichment rejected).
	Backpressured uint64
	Dropped       uint64
	// Report aggregates the shard's delivery metrics from the collector's
	// running mirror (see metrics.Collector.Running: counters and delay
	// percentiles exact); DelayBuckets holds the queuing-delay histogram
	// at metrics.DefaultDelayBucketBounds.
	Report       metrics.Report
	DelayBuckets []metrics.Bucket
	// Lyapunov sums controller telemetry across the shard's RichNote
	// devices (see lyapunov.Stats.Add), maintained incrementally by delta
	// as devices step; parked devices contribute their last-stepped stats.
	Lyapunov lyapunov.Stats
	// LastRound and AvgRound are round-loop wall-clock latencies.
	LastRound time.Duration
	AvgRound  time.Duration
	// Err carries the most recent round error, if any.
	Err string
}

func newShard(id int, srv *Server) *shard {
	sh := &shard{
		id:     id,
		srv:    srv,
		ingest: ingestQueue{wake: make(chan struct{}, 1)},
		ticks:  make(chan tickReq),
		freeze: make(chan freezeReq),
		stateq: make(chan chan []byte),
		stop:   make(chan struct{}),
		crash:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	sh.reset()
	return sh
}

// reset puts the slot's state in the virgin condition: an empty engine
// built from the server's configuration, no feeds, no telemetry. Only
// legal while no shard goroutine is running; between goroutines the log
// is closed and the per-round scratch is empty, so nothing else carries
// over.
func (sh *shard) reset() {
	cfg := &sh.srv.cfg
	ec := core.EngineConfig{
		Epoch:      cfg.Epoch,
		RoundLen:   cfg.VirtualRound,
		Seed:       cfg.Seed,
		Enricher:   sh.srv.enricher,
		Faults:     cfg.Faults,
		OnDelivery: sh.stageDelivery,
	}
	if !cfg.DisableAutoRegister {
		ec.AutoRegister = &cfg.Default
	}
	sh.eng = core.NewEngine(ec)
	sh.rec = obs.NewRecorder()
	sh.lastErr = nil
	sh.feedMu.Lock()
	sh.feeds = make(map[notif.UserID]*feedRing)
	sh.feedMu.Unlock()
	sh.publishSnapshot(0)
}

// doneCh returns the current generation's done channel. Callers about to
// wait must capture it once and reuse the captured value — reading the
// field again after a recycle would observe a different generation.
func (sh *shard) doneCh() chan struct{} {
	sh.doneMu.Lock()
	d := sh.done
	sh.doneMu.Unlock()
	return d
}

// recycle returns a frozen slot to the virgin state so it can be adopted
// again in this process — the planned-handoff rollback path, where the
// source re-adopts the snapshot it just froze after the target failed to
// take it. Only legal once FreezeShard completed: ownership is off, the
// ingest queue is closed and was drained by the freeze, and the old
// goroutine has exited, so nothing races the rebuild. The channels other
// goroutines hold references to (ticks, freeze, stateq, stop, crash) keep
// their identity — they are unbuffered and idle — and only done is
// replaced, under doneMu, because the old one is closed. The queue stays
// closed until finishAdopt reopens it. The process-lifetime ingest
// counters (backpressured, droppedIngest) survive; everything else is
// rebuilt by the restore that follows.
func (sh *shard) recycle() {
	<-sh.doneCh() // already closed by the exited goroutine; never blocks
	sh.doneMu.Lock()
	sh.done = make(chan struct{})
	sh.doneMu.Unlock()
	sh.frozen.Store(false)
	sh.reset()
}

// run is the shard goroutine: it owns every scheduling mutation. When
// every is positive the shard self-ticks on a wall clock; ticks requests
// force a synchronous round either way. On stop the shard drains whatever
// ingest has buffered and runs one final round so accepted publications
// are not stranded.
func (sh *shard) run(every time.Duration) {
	done := sh.doneCh()
	defer close(done)
	var tickC <-chan time.Time
	if every > 0 {
		//lint:allow wallclock the self-tick cadence is wall-clock by design; rounds it triggers use virtual time
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		tickC = ticker.C
	}
	for {
		select {
		case <-sh.ingest.wake:
			sh.drainIngest()
		case <-tickC:
			sh.runRound()
		case req := <-sh.ticks:
			req.reply <- sh.runRound()
		case reply := <-sh.stateq:
			// Canonical state read on the owning goroutine: the only safe
			// way to call stateBytes on a running shard.
			reply <- sh.stateBytes()
		case req := <-sh.freeze:
			req.reply <- sh.doFreeze()
			return
		case <-sh.stop:
			sh.drainAndFinish()
			return
		case <-sh.crash:
			// Crash emulation (Server.CrashStop): no drain, no final round,
			// buffered log records discarded — the state a kill -9 leaves.
			sh.crashAbort()
			return
		}
	}
}

// drainAndFinish runs one last round (which drains the ingest queue
// first) so every accepted publication gets a delivery opportunity before
// shutdown, then flushes a final snapshot and closes the log so a clean
// restart never needs replay.
func (sh *shard) drainAndFinish() {
	sh.runRound()
	sh.closeWAL()
}

// drainIngest accepts whatever the ingest queue holds right now, in push
// order, so a round boundary always schedules every publication accepted
// before it. Each envelope leaves the depth count once accept returns.
func (sh *shard) drainIngest() {
	batch := sh.ingest.take()
	for i := range batch {
		sh.accept(batch[i])
		sh.ingest.depth.Add(-1)
	}
	clear(batch) // drop item references before the slice is reused
}

// accept logs the envelope and hands it to the engine, which registers
// the recipient if needed and buffers the item in the recipient's feed for
// the topic until the feed's next round drain.
func (sh *shard) accept(env envelope) {
	// Log-on-accept: the envelope is durable before any of its effects.
	// Everything the engine does with it is deterministic given engine
	// state, so replaying the logged envelope reproduces registration,
	// subscription and drop decisions exactly. Suppressed during replay —
	// the record exists.
	if sh.log != nil && !sh.replaying {
		sh.logPublish(env)
	}
	if err := sh.eng.Accept(env.topic, env.user, env.item); err != nil {
		sh.droppedIngest.Add(1)
		if !errors.Is(err, core.ErrUnknownUser) {
			sh.lastErr = err
		}
	}
}

// open prepares an owned shard before its goroutine starts, so direct
// state mutation is safe. With durability on it restores first: a shard
// with a snapshot rebuilds every user it knew (including auto-registered
// ones) from its own stored configs, replays its log and re-opens it for
// appending. Then the configured users are registered unless the restore
// already rebuilt them — the snapshot's accumulated state is
// authoritative. Each config entry may claim that exemption once, so
// duplicate entries still fail in AddUser. Last, the shard compacts: the
// fresh snapshot covers the replayed history and the just-registered
// users, so recovery never replays more than one interval and
// registrations — which are snapshotted, never logged — survive a crash
// before the first scheduled compaction.
func (sh *shard) open(users []UserConfig) error {
	durable := sh.srv.cfg.WALDir != ""
	if durable {
		if err := sh.openWAL(); err != nil {
			return err
		}
	}
	restored := make(map[notif.UserID]bool)
	for _, u := range sh.eng.Users() {
		restored[u] = true
	}
	for _, uc := range users {
		if restored[uc.User] {
			delete(restored, uc.User)
			continue
		}
		if err := sh.eng.AddUser(uc); err != nil {
			return err
		}
	}
	sh.publishSnapshot(0)
	if durable {
		return sh.writeSnapshot()
	}
	return nil
}

// runRound executes one scheduling round: drain the ingest queue into
// the engine, step it, publish what it delivered and log the boundary.
// WAL replay drives this same path, so recovery reproduces the
// event-driven trajectory record for record.
func (sh *shard) runRound() error {
	start := time.Now() //lint:allow wallclock round-latency telemetry, not scheduling time
	sh.drainIngest()
	dropped, err := sh.eng.Step()
	sh.droppedIngest.Add(uint64(dropped))
	sh.flushFeeds()
	if err != nil {
		sh.lastErr = err
	}
	if sh.log != nil && !sh.replaying {
		sh.logRound(sh.eng.Round() - 1)
	}
	elapsed := time.Since(start) //lint:allow wallclock round-latency telemetry, not scheduling time
	sh.rec.Observe("round", elapsed)
	sh.publishSnapshot(elapsed)
	return err
}

// stageDelivery buffers a confirmed delivery for the round's single
// feed-lock flush. Runs on the shard goroutine via the engine's
// OnDelivery.
func (sh *shard) stageDelivery(d notif.Delivery) {
	sh.pendingFeed = append(sh.pendingFeed, d)
}

// flushFeeds applies the round's staged deliveries to the recent-delivery
// feeds under one feedMu acquisition, keeping the newest RecentDeliveries
// entries per user in delivery order, at one lock round-trip per round.
func (sh *shard) flushFeeds() {
	if len(sh.pendingFeed) == 0 {
		return
	}
	limit := sh.srv.cfg.RecentDeliveries
	sh.feedMu.Lock()
	for i := range sh.pendingFeed {
		d := &sh.pendingFeed[i]
		f := sh.feeds[d.Recipient]
		if f == nil {
			f = new(feedRing)
			sh.feeds[d.Recipient] = f
		}
		f.push(d, limit)
	}
	sh.feedMu.Unlock()
	sh.pendingFeed = sh.pendingFeed[:0]
}

// Deliveries returns the user's recent deliveries, newest last.
func (sh *shard) Deliveries(user notif.UserID) []notif.Delivery {
	sh.feedMu.Lock()
	defer sh.feedMu.Unlock()
	return slices.Concat(sh.feeds[user].segments())
}

// appendDeliveriesJSON appends the user's feed as the GET deliveries
// response body, encoded under feedMu straight from the feed.
func (sh *shard) appendDeliveriesJSON(b []byte, user notif.UserID) []byte {
	sh.feedMu.Lock()
	defer sh.feedMu.Unlock()
	older, newer := sh.feeds[user].segments()
	return appendDeliveriesJSON(b, user, older, newer)
}

// publishSnapshot rebuilds the shard's read-side view from the engine's
// running aggregates and the collector's running mirror — O(distinct
// delays) plus the snapshot copy, so snapshot cost does not grow with
// resident idle users.
// Called on the shard goroutine only.
func (sh *shard) publishSnapshot(lastRound time.Duration) {
	st := sh.eng.Stats()
	col := sh.eng.Collector()
	snap := &ShardSnapshot{
		Shard:         sh.id,
		Round:         sh.eng.Round(),
		Users:         st.Users,
		BrokerPending: st.BrokerPending,
		Backpressured: sh.backpressured.Load(),
		Dropped:       sh.droppedIngest.Load(),
		Report:        col.Running(),
		DelayBuckets:  col.DelayBuckets(),
		QueueDepth:    st.QueueDepth,
		Lyapunov:      st.Lyapunov,
		LastRound:     lastRound,
	}
	if span, ok := sh.rec.Span("round"); ok && span.Count > 0 {
		snap.AvgRound = span.Duration / time.Duration(span.Count)
	}
	if sh.lastErr != nil {
		snap.Err = sh.lastErr.Error()
	}
	sh.snap.Store(snap)
}

// snapshot returns the most recently published view.
func (sh *shard) snapshot() *ShardSnapshot { return sh.snap.Load() }
