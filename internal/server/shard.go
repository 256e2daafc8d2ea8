package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/obs"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/trace"
	"github.com/richnote/richnote/internal/utility"
	"github.com/richnote/richnote/internal/wal"
)

// envelope is one routed publication: a topic plus the item, addressed to
// a single recipient on this shard.
type envelope struct {
	topic pubsub.TopicID
	user  notif.UserID
	item  notif.Item
}

// tickReq is a synchronous round request: the shard runs one round and
// replies with its error.
type tickReq struct {
	reply chan error
}

// stagedNotif is one broker-flushed publication awaiting batch scoring
// and enrichment at the round boundary.
type stagedNotif struct {
	user notif.UserID
	n    trace.Notification
}

// feedEntry is one confirmed delivery awaiting the round's single
// feed-lock flush.
type feedEntry struct {
	user notif.UserID
	d    notif.Delivery
}

// userAgg caches one user's last contribution to the shard's running
// aggregates, so refreshAgg can fold in deltas.
type userAgg struct {
	queued int
	lyap   lyapunov.Stats
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

// shard owns a disjoint subset of users: their pub/sub buffers, scheduling
// queues Q(t), virtual energy queues P(t), device/network/battery state and
// the per-round control loop. All of that state is confined to the shard
// goroutine started by run; the HTTP layer communicates through the ingest
// channel and reads only the atomically published ShardSnapshot and the
// mutex-guarded recent-delivery feeds.
type shard struct {
	id  int
	srv *Server

	broker   *pubsub.Broker     // richnote:confined(shard)
	enricher *utility.Enricher  // richnote:confined(shard)
	col      *metrics.Collector // richnote:confined(shard)
	rec      *obs.Recorder      // richnote:confined(shard)

	// Goroutine-confined scheduling state: richnote-lint's confined
	// analyzer enforces that only shard methods touch these.
	devices map[notif.UserID]*sched.Device           // richnote:confined(shard)
	inbox   map[notif.UserID][]sched.Queued          // richnote:confined(shard)
	subs    map[notif.UserID]map[pubsub.TopicID]bool // richnote:confined(shard)
	round   int                                      // richnote:confined(shard)
	lastErr error                                    // richnote:confined(shard)
	// userOrder keeps the registered users sorted ascending; maintained
	// incrementally by addUser so full scans iterate deterministically
	// without rebuilding and re-sorting the key set every round.
	userOrder []notif.UserID // richnote:confined(shard)

	// Event-driven round state (DESIGN.md §14). dirty lists the users the
	// next round must step — everyone else is parked, to be caught up
	// bit-identically on wake via Device.CatchUp. The invariant: a user is
	// dirty iff its device is not quiescent or its inbox is non-empty,
	// except that a quiescent device may linger in the set until the next
	// round parks it (stepping a quiescent device is itself equivalent to
	// parking it, so the slack never changes exported state). dirty stays
	// ascending: survivors keep their order and flushStaged appends set
	// dirtyUnsorted, resorted once at the round boundary.
	dirty         []notif.UserID        // richnote:confined(shard)
	isDirty       map[notif.UserID]bool // richnote:confined(shard)
	dirtyUnsorted bool                  // richnote:confined(shard)

	// staged collects the round's broker-flushed publications in handler
	// order so content scoring runs as one cross-user batch (tree-major
	// forest walk) instead of per item; stagedNs/stagedScores are the
	// reusable batch buffers.
	staged       []stagedNotif         // richnote:confined(shard)
	stagedNs     []*trace.Notification // richnote:confined(shard)
	stagedScores []float64             // richnote:confined(shard)

	// pendingFeed batches the round's confirmed deliveries so feedMu is
	// taken once per round (flushFeeds) instead of once per delivery.
	pendingFeed []feedEntry // richnote:confined(shard)

	// Running per-shard aggregates, maintained by delta each time a device
	// is stepped so publishSnapshot is O(dirty) instead of O(users):
	// aggQueue sums queue depth + inbox backlog, aggLyap folds controller
	// telemetry, and aggByUser caches each user's last contribution.
	// Parked devices contribute their park-time stats (the Rounds
	// denominator lags until they wake) — snapshot telemetry, not
	// canonical state.
	aggByUser map[notif.UserID]*userAgg // richnote:confined(shard)
	aggQueue  int                       // richnote:confined(shard)
	aggLyap   lyapunov.Stats            // richnote:confined(shard)

	// Durability state (walstate.go), active when Config.WALDir is set:
	// the per-shard append-only log, reusable encode scratch for log
	// records and snapshots, the per-user configs needed to rebuild
	// devices at restore time, and the replay flag that keeps recovery
	// from re-logging the records it is replaying.
	log       *wal.Writer                 // richnote:confined(shard)
	walEnc    wal.Codec                   // richnote:confined(shard)
	snapEnc   wal.Codec                   // richnote:confined(shard)
	userCfgs  map[notif.UserID]UserConfig // richnote:confined(shard)
	replaying bool                        // richnote:confined(shard)

	ingest chan envelope
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
	// ingest buffer crossed the high-water mark (overload); droppedIngest
	// counts publications accepted into the shard but discarded there —
	// unknown users with auto-registration disabled, or registration/
	// subscription failures (misrouted traffic). Split so /metrics can
	// distinguish "we are overloaded" from "someone is publishing garbage".
	backpressured atomic.Uint64 // richnote:atomic
	droppedIngest atomic.Uint64 // richnote:atomic

	snap atomic.Pointer[ShardSnapshot] // richnote:atomic

	feedMu sync.Mutex
	feeds  map[notif.UserID][]notif.Delivery // newest last, capped
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
	// devices; BrokerPending counts publications still buffered in
	// round-mode subscriptions.
	QueueDepth    int
	BrokerPending int
	// Backpressured counts publishes rejected for ingest overload (429);
	// Dropped counts publications discarded in-shard (unknown user with
	// auto-registration disabled, or registration/subscription failures).
	Backpressured uint64
	Dropped       uint64
	// Report aggregates the shard's delivery metrics from the collector's
	// running mirror (see metrics.Collector.Running: counters exact, delay
	// percentiles at bucket resolution); DelayBuckets holds the
	// queuing-delay histogram at metrics.DefaultDelayBucketBounds.
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

func newShard(id int, srv *Server, enricher *utility.Enricher) *shard {
	sh := &shard{
		id:        id,
		srv:       srv,
		broker:    pubsub.NewBroker(),
		enricher:  enricher,
		col:       metrics.NewCollector(),
		rec:       obs.NewRecorder(),
		devices:   make(map[notif.UserID]*sched.Device),
		inbox:     make(map[notif.UserID][]sched.Queued),
		subs:      make(map[notif.UserID]map[pubsub.TopicID]bool),
		isDirty:   make(map[notif.UserID]bool),
		aggByUser: make(map[notif.UserID]*userAgg),
		userCfgs:  make(map[notif.UserID]UserConfig),
		ingest:    make(chan envelope, srv.cfg.IngestBuffer),
		ticks:     make(chan tickReq),
		freeze:    make(chan freezeReq),
		stateq:    make(chan chan []byte),
		stop:      make(chan struct{}),
		crash:     make(chan struct{}),
		done:      make(chan struct{}),
		feeds:     make(map[notif.UserID][]notif.Delivery),
	}
	sh.publishSnapshot(0)
	return sh
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
// take it. Only legal once FreezeShard completed: ownership is off and
// the old goroutine has exited, so nothing races the rebuild. The
// channels other goroutines hold references to (ingest, ticks, freeze,
// stateq, stop, crash) keep their identity — ingest is drained, the rest
// are unbuffered and idle — and only done is replaced, under doneMu,
// because the old one is closed. The process-lifetime ingest counters
// (backpressured, droppedIngest) survive; everything else is rebuilt by
// the restore that follows.
func (sh *shard) recycle() {
	<-sh.doneCh() // already closed by the exited goroutine; never blocks
	for {
		select {
		case <-sh.ingest:
			continue
		default:
		}
		break
	}
	sh.broker = pubsub.NewBroker()
	sh.col = metrics.NewCollector()
	sh.rec = obs.NewRecorder()
	sh.devices = make(map[notif.UserID]*sched.Device)
	sh.inbox = make(map[notif.UserID][]sched.Queued)
	sh.subs = make(map[notif.UserID]map[pubsub.TopicID]bool)
	sh.round = 0
	sh.lastErr = nil
	sh.userOrder = nil
	sh.dirty = nil
	sh.isDirty = make(map[notif.UserID]bool)
	sh.dirtyUnsorted = false
	sh.staged = nil
	sh.stagedNs = nil
	sh.stagedScores = nil
	sh.pendingFeed = nil
	sh.aggByUser = make(map[notif.UserID]*userAgg)
	sh.aggQueue = 0
	sh.aggLyap = lyapunov.Stats{}
	sh.log = nil
	sh.walEnc = wal.Codec{}
	sh.snapEnc = wal.Codec{}
	sh.userCfgs = make(map[notif.UserID]UserConfig)
	sh.replaying = false
	sh.doneMu.Lock()
	sh.done = make(chan struct{})
	sh.doneMu.Unlock()
	sh.feedMu.Lock()
	sh.feeds = make(map[notif.UserID][]notif.Delivery)
	sh.feedMu.Unlock()
	sh.frozen.Store(false)
	sh.publishSnapshot(0)
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
		case env := <-sh.ingest:
			sh.accept(env)
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

// drainAndFinish runs one last round (which drains the ingest buffer
// first) so every accepted publication gets a delivery opportunity before
// shutdown, then flushes a final snapshot and closes the log so a clean
// restart never needs replay.
func (sh *shard) drainAndFinish() {
	sh.runRound()
	sh.closeWAL()
}

// drainIngest empties whatever the ingest buffer holds right now, so a
// round boundary always schedules every publication accepted before it.
func (sh *shard) drainIngest() {
	for {
		select {
		case env := <-sh.ingest:
			sh.accept(env)
		default:
			return
		}
	}
}

// accept registers the recipient if needed, subscribes it to the topic and
// publishes the item into the shard broker, where it buffers until the
// next round drain.
func (sh *shard) accept(env envelope) {
	// Log-on-accept: the envelope is durable before any of its effects.
	// Everything below is deterministic given shard state, so replaying the
	// logged envelope reproduces registration, subscription and drop
	// decisions exactly. Suppressed during replay — the record exists.
	if sh.log != nil && !sh.replaying {
		sh.logPublish(env)
	}
	if _, ok := sh.devices[env.user]; !ok {
		if sh.srv.cfg.DisableAutoRegister {
			sh.droppedIngest.Add(1)
			return
		}
		tmpl := sh.srv.cfg.Default
		tmpl.User = env.user
		if err := sh.addUser(tmpl); err != nil {
			sh.lastErr = err
			sh.droppedIngest.Add(1)
			return
		}
	}
	if err := sh.subscribe(env.user, env.topic); err != nil {
		sh.lastErr = err
		sh.droppedIngest.Add(1)
		return
	}
	item := env.item
	item.Recipient = env.user
	sh.broker.Publish(env.topic, item)
}

// kindCadence implements the paper's Section II round tuning: frequent
// friend feeds drain every round, artist pages every other round, playlist
// updates every fourth.
func kindCadence(k notif.TopicKind) int {
	switch k {
	case notif.TopicArtistPage:
		return 2
	case notif.TopicPlaylist:
		return 4
	default:
		return 1
	}
}

// subscribe idempotently connects a user to a topic in round mode; the
// handler stages publications for the round's batch scoring pass
// (flushStaged), which enriches them into the user's inbox in the same
// handler order the historical per-item path used.
func (sh *shard) subscribe(user notif.UserID, topic pubsub.TopicID) error {
	if sh.subs[user][topic] {
		return nil
	}
	err := sh.broker.SubscribeCadence(user, topic, pubsub.ModeRound, kindCadence(topic.Kind), func(items []notif.Item) {
		for _, item := range items {
			// The broker fans a topic publication out to every subscriber,
			// but server envelopes are addressed: accept stamps the
			// recipient, and each subscription keeps only its own items.
			if item.Recipient != user {
				continue
			}
			sh.staged = append(sh.staged, stagedNotif{
				user: user,
				n:    trace.Notification{Item: item, Round: sh.round},
			})
		}
	})
	if err != nil {
		return err
	}
	set := sh.subs[user]
	if set == nil {
		set = make(map[pubsub.TopicID]bool)
		sh.subs[user] = set
	}
	set[topic] = true
	return nil
}

// users returns the registered users in ascending order. Only safe
// before the shard goroutine starts (New's registration/restore phase).
func (sh *shard) users() []notif.UserID {
	return append([]notif.UserID(nil), sh.userOrder...)
}

// addUser builds the device stack for one user: seeded network model,
// battery, strategy and (for RichNote) Lyapunov controller.
func (sh *shard) addUser(cfg UserConfig) error {
	if _, dup := sh.devices[cfg.User]; dup {
		return fmt.Errorf("server: user %d already registered", cfg.User)
	}
	cfg.applyDefaults()

	userSeed := sh.srv.cfg.Seed ^ (int64(cfg.User+1) * 0x9e3779b9)
	netModel, err := network.NewModelSeeded(*cfg.NetworkMatrix, cfg.StartState, userSeed)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	battery, err := energy.NewBattery(energy.BatteryConfig{}, newSeededRand(userSeed+1))
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	// Per-device fault model on its own seed offset, mirroring the
	// simulator's dedicated fault stream: enabling faults must not perturb
	// the network walk (userSeed) or battery jitter (userSeed+1).
	var faults *network.FaultModel
	if sh.srv.cfg.Faults.Enabled() {
		faults, err = network.NewFaultModelSeeded(sh.srv.cfg.Faults, userSeed+2)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}

	var strategy sched.Strategy
	var ctl *lyapunov.Controller
	switch cfg.Strategy {
	case core.StrategyRichNote:
		ctl, err = lyapunov.New(lyapunov.Config{V: cfg.V, Kappa: cfg.KappaJ})
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		strategy = &sched.RichNote{}
	case core.StrategyFIFO:
		strategy, err = sched.NewFIFO(cfg.FixedLevel)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
	case core.StrategyUtil:
		strategy, err = sched.NewUtil(cfg.FixedLevel)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
	default:
		return fmt.Errorf("server: unknown strategy %d", cfg.Strategy)
	}

	user := cfg.User
	device, err := sched.NewDevice(sched.DeviceConfig{
		User:                  user,
		Strategy:              strategy,
		WeeklyBudgetBytes:     cfg.WeeklyBudgetBytes,
		RoundsPerWeek:         sh.srv.roundsPerWeek,
		Epoch:                 sh.srv.cfg.Epoch,
		RoundLen:              sh.srv.cfg.VirtualRound,
		Network:               netModel,
		Capacity:              network.DefaultCapacity(),
		Battery:               battery,
		Transfer:              energy.DefaultTransferModel(),
		Controller:            ctl,
		Collector:             sh.col,
		Faults:                faults,
		MaxAttempts:           cfg.MaxAttempts,
		DegradeOnFailure:      cfg.DegradeOnFailure,
		MaxDeliveriesPerRound: cfg.MaxDeliveriesPerRound,
		// Mid-run registrations start at the shard clock: they never ran the
		// earlier rounds, so CatchUp must not replay them.
		StartRound: sh.round,
		OnDelivery: func(d notif.Delivery) { sh.stageDelivery(user, d) },
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	sh.devices[user] = device
	sh.aggByUser[user] = &userAgg{}
	sh.refreshAgg(user, device)
	// New devices start dirty: a RichNote controller needs rounds to climb
	// P above κ before it can park, and any pending publish will want the
	// first round anyway. The first quiescent round parks it.
	sh.markDirty(user)
	// Remember the applied config (defaults resolved, matrix copied so the
	// caller's pointer cannot alias): snapshots store it to rebuild the
	// device stack at restore time.
	matrix := *cfg.NetworkMatrix
	cfg.NetworkMatrix = &matrix
	sh.userCfgs[user] = cfg
	// Keep userOrder sorted: binary-search the insertion point and shift.
	at := sort.Search(len(sh.userOrder), func(i int) bool { return sh.userOrder[i] >= user })
	sh.userOrder = append(sh.userOrder, 0)
	copy(sh.userOrder[at+1:], sh.userOrder[at:])
	sh.userOrder[at] = user
	return nil
}

// runRound executes one scheduling round: drain the broker's round-mode
// buffers, batch-score and enrich the flushed publications into inboxes,
// then run Algorithm 2 on the dirty set — every device, in ascending user
// order, when Config.ForceFullScan pins the reference loop. WAL replay
// drives this same path, so recovery reproduces the event-driven
// trajectory record for record.
func (sh *shard) runRound() error {
	start := time.Now() //lint:allow wallclock round-latency telemetry, not scheduling time
	sh.drainIngest()
	sh.broker.EndRoundIndex(sh.round)
	sh.flushStaged()

	var firstErr error
	if sh.srv.cfg.ForceFullScan {
		firstErr = sh.stepAll()
	} else {
		if sh.dirtyUnsorted {
			// Survivors stay sorted; only flushStaged appends disorder the
			// tail. One sort at the boundary keeps stepDirty allocation-free.
			sort.Slice(sh.dirty, func(i, j int) bool { return sh.dirty[i] < sh.dirty[j] })
			sh.dirtyUnsorted = false
		}
		firstErr = sh.stepDirty()
	}
	sh.flushFeeds()
	sh.round++
	if firstErr != nil {
		sh.lastErr = firstErr
	}
	if sh.log != nil && !sh.replaying {
		sh.logRound(sh.round - 1)
	}
	elapsed := time.Since(start) //lint:allow wallclock round-latency telemetry, not scheduling time
	sh.rec.Observe("round", elapsed)
	sh.publishSnapshot(elapsed)
	return firstErr
}

// markDirty queues a user for the next round step. No-op in full-scan
// mode, where every round visits every user anyway.
func (sh *shard) markDirty(u notif.UserID) {
	if sh.srv.cfg.ForceFullScan || sh.isDirty[u] {
		return
	}
	sh.isDirty[u] = true
	sh.dirty = append(sh.dirty, u)
	sh.dirtyUnsorted = true
}

// flushStaged turns the round's broker-flushed publications into inbox
// entries: one batch scoring call across all users (amortizing the
// forest's tree-major arena walk), then per-item enrichment in the same
// staged (handler-invocation) order the historical inline path appended
// in — so inbox order, and every downstream queue order, is unchanged.
// Recipients of new inbox items are marked dirty.
func (sh *shard) flushStaged() {
	if len(sh.staged) == 0 {
		return
	}
	ns := sh.stagedNs[:0]
	for i := range sh.staged {
		ns = append(ns, &sh.staged[i].n)
	}
	sh.stagedNs = ns
	scorer := sh.enricher.Scorer()
	if bs, ok := scorer.(utility.BatchScorer); ok {
		sh.stagedScores = bs.ScoreBatch(ns, sh.stagedScores[:0])
	} else {
		scores := sh.stagedScores[:0]
		for _, n := range ns {
			scores = append(scores, scorer.Score(n))
		}
		sh.stagedScores = scores
	}
	for i := range sh.staged {
		st := &sh.staged[i]
		rich, err := sh.enricher.EnrichScored(&st.n, sh.stagedScores[i])
		if err != nil {
			continue // malformed publications are dropped, not fatal
		}
		sh.inbox[st.user] = append(sh.inbox[st.user], sched.Queued{Rich: rich})
		sh.markDirty(st.user)
	}
	for i := range sh.staged {
		sh.staged[i] = stagedNotif{}
		sh.stagedNs[i] = nil
	}
	sh.staged = sh.staged[:0]
	sh.stagedNs = sh.stagedNs[:0]
}

// stepDirty is the event-driven steady-state core: step exactly the dirty
// users, park the ones that went quiescent, keep the rest. The dirty
// list is compacted in place and the loop allocates nothing — idle
// resident users cost zero here, which is what makes round cost O(dirty)
// instead of O(users).
//
// richnote:allocfree
func (sh *shard) stepDirty() error {
	var firstErr error
	keep := sh.dirty[:0]
	for _, u := range sh.dirty {
		stillDirty, err := sh.stepUser(u)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if stillDirty {
			keep = append(keep, u)
		} else {
			delete(sh.isDirty, u)
		}
	}
	sh.dirty = keep
	return firstErr
}

// stepAll is the full-scan reference loop (Config.ForceFullScan): every
// registered user, every round, in ascending order. It shares stepUser
// with the event-driven path — CatchUp is a no-op because no device ever
// falls behind — so the two modes differ only in which users they visit,
// and the equivalence test pins their exported state byte-equal.
func (sh *shard) stepAll() error {
	var firstErr error
	for _, u := range sh.userOrder {
		if _, err := sh.stepUser(u); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// stepUser runs one user's round: wake the device (CatchUp replays any
// parked rounds bit-identically), flush its inbox into the scheduling
// queue, execute Algorithm 2, refresh the shard aggregates, and report
// whether the user must stay dirty. An inbox flush that fails validation
// preserves the legacy full-scan behavior: the device sits the round out
// (SkipRound) with its inbox intact.
//
// richnote:allocfree
func (sh *shard) stepUser(u notif.UserID) (bool, error) {
	dev := sh.devices[u]
	if err := dev.CatchUp(sh.round); err != nil {
		// Unreachable: dirty-tracked devices are either current or parked
		// with empty queues. Stay dirty so the error cannot recur silently.
		sh.refreshAgg(u, dev)
		return true, err
	}
	if batch := sh.inbox[u]; len(batch) > 0 {
		if err := dev.Enqueue(batch); err != nil {
			dev.SkipRound(sh.round)
			sh.refreshAgg(u, dev)
			return true, err
		}
		for i := range batch {
			batch[i] = sched.Queued{}
		}
		sh.inbox[u] = batch[:0]
	}
	_, err := dev.RunRound(sh.round)
	sh.refreshAgg(u, dev)
	return !dev.Quiescent(), err
}

// refreshAgg folds the user's current queue depth and controller
// telemetry into the shard's running aggregates by delta against the
// user's cached last contribution. The MaxQ/Rounds running maxima are
// exact because both are per-user monotone; the float sums accumulate in
// step order rather than one deterministic fold order, which is fine for
// what they feed (snapshot telemetry).
//
// richnote:allocfree
func (sh *shard) refreshAgg(u notif.UserID, dev *sched.Device) {
	a := sh.aggByUser[u]
	q := dev.QueueLen() + len(sh.inbox[u])
	sh.aggQueue += q - a.queued
	a.queued = q
	if st, ok := dev.ControllerStats(); ok {
		sh.aggLyap.AvgQ += st.AvgQ - a.lyap.AvgQ
		sh.aggLyap.AvgDrift += st.AvgDrift - a.lyap.AvgDrift
		sh.aggLyap.FinalQ += st.FinalQ - a.lyap.FinalQ
		sh.aggLyap.FinalP += st.FinalP - a.lyap.FinalP
		sh.aggLyap.FinalLyap += st.FinalLyap - a.lyap.FinalLyap
		if st.MaxQ > sh.aggLyap.MaxQ {
			sh.aggLyap.MaxQ = st.MaxQ
		}
		if st.Rounds > sh.aggLyap.Rounds {
			sh.aggLyap.Rounds = st.Rounds
		}
		a.lyap = st
	}
}

// rebuildAgg recomputes the running aggregates from scratch — restore
// and settle paths, where an O(users) walk is already being paid.
func (sh *shard) rebuildAgg() {
	sh.aggQueue = 0
	sh.aggLyap = lyapunov.Stats{}
	for _, u := range sh.userOrder {
		*sh.aggByUser[u] = userAgg{}
		sh.refreshAgg(u, sh.devices[u])
	}
}

// rebuildDirty derives the dirty set from device state: dirty iff the
// device is not quiescent or holds inbox items. This is exactly the
// live set's invariant (modulo quiescent stragglers the next round would
// park, whose stepping is equivalent to parking), so a restored shard
// resumes the same trajectory the crashed one was on.
func (sh *shard) rebuildDirty() {
	sh.dirty = sh.dirty[:0]
	clear(sh.isDirty)
	sh.dirtyUnsorted = false
	if sh.srv.cfg.ForceFullScan {
		return
	}
	for _, u := range sh.userOrder {
		if !sh.devices[u].Quiescent() || len(sh.inbox[u]) > 0 {
			sh.isDirty[u] = true
			sh.dirty = append(sh.dirty, u) // userOrder ascending ⇒ sorted
		}
	}
}

// settleAll catches every parked device up to the shard clock so exported
// state is identical to a full-scan run's. Called before canonical state
// encodes (stateBytes, writeSnapshot); the amortized O(users) cost rides
// on paths that are already O(users). Aggregates are rebuilt afterwards
// since catch-up advances controller round counters.
func (sh *shard) settleAll() {
	settled := false
	for _, u := range sh.userOrder {
		dev := sh.devices[u]
		if dev.NextRound() >= sh.round {
			continue
		}
		if err := dev.CatchUp(sh.round); err != nil && sh.lastErr == nil {
			sh.lastErr = err // unreachable: parked devices have empty queues
		}
		settled = true
	}
	if settled {
		sh.rebuildAgg()
	}
}

// stageDelivery buffers a confirmed delivery for the round's single
// feed-lock flush. Runs on the shard goroutine via Device.OnDelivery.
func (sh *shard) stageDelivery(user notif.UserID, d notif.Delivery) {
	sh.pendingFeed = append(sh.pendingFeed, feedEntry{user: user, d: d})
}

// flushFeeds applies the round's staged deliveries to the recent-delivery
// feeds under one feedMu acquisition, keeping the newest RecentDeliveries
// entries per user in delivery order — byte-for-byte what the historical
// per-delivery locking produced, at one lock round-trip per round.
func (sh *shard) flushFeeds() {
	if len(sh.pendingFeed) == 0 {
		return
	}
	limit := sh.srv.cfg.RecentDeliveries
	sh.feedMu.Lock()
	for i := range sh.pendingFeed {
		en := &sh.pendingFeed[i]
		feed := append(sh.feeds[en.user], en.d)
		if len(feed) > limit {
			feed = append(feed[:0], feed[len(feed)-limit:]...)
		}
		sh.feeds[en.user] = feed
	}
	sh.feedMu.Unlock()
	for i := range sh.pendingFeed {
		sh.pendingFeed[i] = feedEntry{}
	}
	sh.pendingFeed = sh.pendingFeed[:0]
}

// Deliveries returns the user's recent deliveries, newest last.
func (sh *shard) Deliveries(user notif.UserID) []notif.Delivery {
	sh.feedMu.Lock()
	defer sh.feedMu.Unlock()
	return append([]notif.Delivery(nil), sh.feeds[user]...)
}

// publishSnapshot recomputes the shard's read-side view from running
// aggregates: QueueDepth and Lyapunov come from the per-user delta cache
// refreshAgg maintains, Report/DelayBuckets from the collector's running
// mirror. The historical version walked every device and re-folded every
// metric sample per round — O(users + samples); this is O(1) plus the
// snapshot copy, so snapshot cost no longer grows with resident idle
// users. Called on the shard goroutine only.
func (sh *shard) publishSnapshot(lastRound time.Duration) {
	snap := &ShardSnapshot{
		Shard:         sh.id,
		Round:         sh.round,
		Users:         len(sh.devices),
		BrokerPending: sh.broker.PendingRound(),
		Backpressured: sh.backpressured.Load(),
		Dropped:       sh.droppedIngest.Load(),
		Report:        sh.col.Running(),
		DelayBuckets:  sh.col.RunningDelayBuckets(),
		QueueDepth:    sh.aggQueue,
		Lyapunov:      sh.aggLyap,
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
