package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/sim"
	"github.com/richnote/richnote/internal/survey"
	"github.com/richnote/richnote/internal/trace"
	"github.com/richnote/richnote/internal/utility"
)

// UserConfig describes one registered device.
type UserConfig struct {
	User notif.UserID
	// Strategy defaults to RichNote.
	Strategy StrategyKind
	// FixedLevel is the FIFO/UTIL presentation level; defaults to 3.
	FixedLevel int
	// WeeklyBudgetBytes defaults to 100 MB/week.
	WeeklyBudgetBytes int64
	// V and KappaJ tune the Lyapunov controller; zero selects the paper
	// defaults.
	V      float64
	KappaJ float64
	// NetworkMatrix defaults to the paper's WIFI/CELL/OFF model;
	// StartState defaults to CELL.
	NetworkMatrix *network.Matrix
	StartState    network.State
	// MaxDeliveriesPerRound caps per-round pushes; 0 means unlimited.
	MaxDeliveriesPerRound int
	// MaxAttempts bounds failed transfer attempts per item before the
	// device drops it; 0 retries forever. Only meaningful when the engine
	// injects faults (EngineConfig.Faults).
	MaxAttempts int
	// DegradeOnFailure lowers a failed item's presentation-level cap one
	// level per retry, trading richness for delivery probability.
	DegradeOnFailure bool
}

func (c *UserConfig) applyDefaults() {
	if c.Strategy == 0 {
		c.Strategy = StrategyRichNote
	}
	if c.FixedLevel == 0 {
		c.FixedLevel = 3
	}
	if c.WeeklyBudgetBytes <= 0 {
		c.WeeklyBudgetBytes = 100 << 20
	}
	if c.V == 0 {
		c.V = DefaultV
	}
	if c.KappaJ == 0 {
		c.KappaJ = DefaultKappaJ
	}
	if c.NetworkMatrix == nil {
		m := network.PaperMatrix()
		c.NetworkMatrix = &m
	}
	if c.StartState == 0 {
		c.StartState = network.StateCell
	}
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Epoch anchors virtual time; defaults to 2015-01-01 UTC. RoundLen is
	// one round of virtual time; defaults to one hour.
	Epoch    time.Time
	RoundLen time.Duration
	// Seed drives per-user randomness.
	Seed int64
	// Enricher scores and expands publications flushed from the broker.
	Enricher *utility.Enricher
	// Faults injects per-transfer failures into every device; the zero
	// value injects none.
	Faults network.FaultConfig
	// AutoRegister, when non-nil, is the template Accept registers an
	// unknown recipient with; nil makes Accept refuse unknown recipients.
	AutoRegister *UserConfig
	// OnDelivery, when set, observes every confirmed delivery, in
	// ascending user order within a round.
	OnDelivery func(notif.Delivery)

	// Device knobs that hold for a whole run. The zero values are the
	// service's behaviour: default link capacity and transfer model,
	// rollover budgets, persistent queues, the paper's level-by-level MCKP.
	Capacity       *network.Capacity
	Transfer       *energy.TransferModel
	PerRoundBudget bool
	// DropUndelivered makes the FIFO/UTIL baselines drop what a round's
	// budget could not afford; RichNote devices always keep their queue.
	DropUndelivered bool
	UseDominance    bool
}

// NewEnricher builds the enricher a live engine scores publications with.
// A nil scorer selects a neutral constant one (no personalization), a nil
// generator the paper's six-level audio ladder with Equation 8 utilities.
func NewEnricher(scorer utility.ContentScorer, generator media.Generator) (*utility.Enricher, error) {
	if scorer == nil {
		scorer = utility.ConstantScorer{Value: 0.5}
	}
	if generator == nil {
		g, err := media.NewAudioGenerator(media.AudioConfig{Utility: survey.Equation8})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		generator = g
	}
	e, err := utility.NewEnricher(scorer, generator)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e, nil
}

// ErrDuplicateUser is returned when a user is registered twice.
var ErrDuplicateUser = errors.New("core: user already registered")

// ErrUnknownUser is returned for operations on a user that was never
// registered, including Accept with auto-registration off.
var ErrUnknownUser = errors.New("core: unknown user")

// engineUser is everything the engine holds for one registered user.
type engineUser struct {
	// cfg is the applied config (defaults resolved, matrix copied so the
	// caller's pointer cannot alias); exports store it to rebuild the
	// device stack at restore time.
	cfg   UserConfig
	dev   *sched.Device
	inbox []sched.Queued
	// feeds are the user's addressed subscriptions (Accept), ascending in
	// canonical topic order; waiting marks membership of Engine.waiting.
	feeds   []addressedFeed
	waiting bool
	dirty   bool
	// queued and lyap cache the user's last contribution to the engine's
	// running aggregates, so refreshAgg can fold in deltas.
	queued int
	lyap   lyapunov.Stats
}

// addressedFeed is one addressed subscription: the publications Accept
// took for this user on the topic, in arrival order, held until a round
// the topic kind's cadence divides.
type addressedFeed struct {
	topic   pubsub.TopicID
	cadence int
	pending []notif.Item
}

// compareTopics is the canonical topic order: kind, then entity.
func compareTopics(a, b pubsub.TopicID) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	return cmp.Compare(a.Entity, b.Entity)
}

// findFeed locates the topic in the user's feeds, or where it would go.
func (u *engineUser) findFeed(topic pubsub.TopicID) (int, bool) {
	return slices.BinarySearchFunc(u.feeds, topic, func(f addressedFeed, t pubsub.TopicID) int {
		return compareTopics(f.topic, t)
	})
}

// feed returns the user's addressed feed for the topic, subscribing it at
// the topic kind's cadence if it does not exist yet. The pointer is valid
// until the next call.
func (u *engineUser) feed(topic pubsub.TopicID) *addressedFeed {
	i, found := u.findFeed(topic)
	if !found {
		u.feeds = slices.Insert(u.feeds, i, addressedFeed{topic: topic, cadence: kindCadence(topic.Kind)})
	}
	return &u.feeds[i]
}

// stagedNotif is one flushed publication awaiting batch scoring
// and enrichment at the round boundary.
type stagedNotif struct {
	user *engineUser
	n    trace.Notification
}

// Engine is the paper's Algorithm 2 driver: it owns everything a round
// touches — collector, per-user devices, inboxes and addressed feeds, the
// broker of the broadcast path — and advances it one round per Step. It
// starts no goroutine, opens no file, takes no lock and reads no clock; a
// host (the server's shard, Live, Pipeline.Run) supplies arrivals and
// calls Step. An Engine is not safe for concurrent use.
type Engine struct {
	cfg           EngineConfig
	roundsPerWeek int

	broker *pubsub.Broker
	col    *metrics.Collector
	users  map[notif.UserID]*engineUser
	// order keeps the registered users ascending, maintained incrementally
	// by AddUser so full walks are deterministic without re-sorting.
	order []*engineUser
	round int
	// broadcast records that Subscribe was used, which StateFields cannot
	// represent.
	broadcast bool

	// The addressed path (Accept) bypasses the broker: an item goes to its
	// recipient's own feed and nowhere else. waiting lists the users holding
	// at least one buffered item, ascending once Step has sorted it (Accept
	// appends set waitingUnsorted); pending counts those items. published
	// and delivered are the state format's broker counters: items accepted,
	// items flushed from a feed.
	waiting         []*engineUser
	waitingUnsorted bool
	pending         int
	published       uint64
	delivered       uint64

	// Event-driven round state (DESIGN.md §14). dirty lists the users the
	// next round must step — everyone else is parked, to be caught up
	// bit-identically on wake via Device.CatchUp. The invariant: a user is
	// dirty iff its device is not quiescent or its inbox is non-empty,
	// except that a quiescent device may linger in the set until the next
	// round parks it (stepping a quiescent device is itself equivalent to
	// parking it, so the slack never changes exported state). dirty stays
	// ascending: survivors keep their order and markDirty appends set
	// dirtyUnsorted, resorted once at the round boundary.
	dirty         []*engineUser
	dirtyUnsorted bool
	// fullScan makes Step treat every user as dirty every round — no
	// parking, no catch-up. Tests set it to get the reference the
	// event-driven loop must match byte for byte.
	fullScan bool

	// staged collects the round's flushed publications — the broker's in
	// handler order, then the addressed feeds' — so content scoring runs as
	// one cross-user batch (tree-major forest walk) instead of per item;
	// stagedNs/stagedScores are the reusable batch buffers.
	staged       []stagedNotif
	stagedNs     []*trace.Notification
	stagedScores []float64

	// Running aggregates, maintained by delta each time a device is
	// stepped so Stats is O(1): aggQueue sums queue depth + inbox backlog,
	// aggLyap folds controller telemetry. Parked devices contribute their
	// park-time stats (the Rounds denominator lags until they wake) —
	// telemetry, not canonical state.
	aggQueue int
	aggLyap  lyapunov.Stats
}

// NewEngine returns an empty engine at round zero.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.RoundLen <= 0 {
		cfg.RoundLen = time.Hour
	}
	return &Engine{
		cfg:           cfg,
		roundsPerWeek: max(1, int(7*24*time.Hour/cfg.RoundLen)),
		broker:        pubsub.NewBroker(),
		col:           metrics.NewCollector(),
		users:         make(map[notif.UserID]*engineUser),
	}
}

// Round returns the next round index to execute.
func (e *Engine) Round() int { return e.round }

// Collector exposes the running metrics.
func (e *Engine) Collector() *metrics.Collector { return e.col }

// Users returns the registered users in ascending order.
func (e *Engine) Users() []notif.UserID {
	ids := make([]notif.UserID, len(e.order))
	for i, u := range e.order {
		ids[i] = u.cfg.User
	}
	return ids
}

// EngineStats is the engine's O(1) telemetry view.
type EngineStats struct {
	Users int
	// QueueDepth sums scheduling-queue lengths and inbox backlogs;
	// BrokerPending counts publications held for their feed's cadence
	// round, addressed and broadcast.
	QueueDepth    int
	BrokerPending int
	// Lyapunov sums controller telemetry across RichNote devices (see
	// lyapunov.Stats.Add); parked devices contribute their last-stepped
	// stats.
	Lyapunov lyapunov.Stats
}

// Stats returns the running aggregates.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Users:         len(e.order),
		QueueDepth:    e.aggQueue,
		BrokerPending: e.broker.PendingRound() + e.pending,
		Lyapunov:      e.aggLyap,
	}
}

func (e *Engine) userSeed(user notif.UserID) int64 {
	return e.cfg.Seed ^ (int64(user+1) * 0x9e3779b9)
}

// newDevice builds the device stack for one user: seeded network model,
// battery, fault model, strategy and (for RichNote) Lyapunov controller.
// Each random process draws from its own stream, keyed
// sim.StreamSeed(userSeed, stream), so enabling faults never perturbs the
// network walk or the battery jitter, and every host — the server's shard,
// Live, Pipeline.Run — draws the same streams for the same seed.
func (e *Engine) newDevice(cfg *UserConfig) (*sched.Device, error) {
	seed := e.userSeed(cfg.User)
	netModel, err := network.NewModelSeeded(*cfg.NetworkMatrix, cfg.StartState, sim.StreamSeed(seed, sim.StreamNetwork))
	if err != nil {
		return nil, err
	}
	battery, err := energy.NewBatterySeeded(energy.BatteryConfig{}, sim.StreamSeed(seed, sim.StreamEnergy))
	if err != nil {
		return nil, err
	}
	// A nil fault model (faults disabled) keeps the delivery path on the
	// success-only code.
	var faults *network.FaultModel
	if e.cfg.Faults.Enabled() {
		faults, err = network.NewFaultModelSeeded(e.cfg.Faults, sim.StreamSeed(seed, sim.StreamFaults))
		if err != nil {
			return nil, err
		}
	}

	var strategy sched.Strategy
	var ctl *lyapunov.Controller
	switch cfg.Strategy {
	case StrategyRichNote:
		ctl, err = lyapunov.New(lyapunov.Config{V: cfg.V, Kappa: cfg.KappaJ})
		strategy = &sched.RichNote{UseDominance: e.cfg.UseDominance}
	case StrategyFIFO:
		strategy, err = sched.NewFIFO(cfg.FixedLevel)
	case StrategyUtil:
		strategy, err = sched.NewUtil(cfg.FixedLevel)
	default:
		err = fmt.Errorf("unknown strategy %d", cfg.Strategy)
	}
	if err != nil {
		return nil, err
	}

	capacity, transfer := network.DefaultCapacity(), energy.DefaultTransferModel()
	if e.cfg.Capacity != nil {
		capacity = *e.cfg.Capacity
	}
	if e.cfg.Transfer != nil {
		transfer = *e.cfg.Transfer
	}
	return sched.NewDevice(sched.DeviceConfig{
		User:                  cfg.User,
		Strategy:              strategy,
		WeeklyBudgetBytes:     cfg.WeeklyBudgetBytes,
		RoundsPerWeek:         e.roundsPerWeek,
		Epoch:                 e.cfg.Epoch,
		RoundLen:              e.cfg.RoundLen,
		Network:               netModel,
		Capacity:              capacity,
		Battery:               battery,
		Transfer:              transfer,
		Controller:            ctl,
		Collector:             e.col,
		Faults:                faults,
		MaxAttempts:           cfg.MaxAttempts,
		DegradeOnFailure:      cfg.DegradeOnFailure,
		MaxDeliveriesPerRound: cfg.MaxDeliveriesPerRound,
		PerRoundBudget:        e.cfg.PerRoundBudget,
		DropUndelivered:       e.cfg.DropUndelivered && cfg.Strategy != StrategyRichNote,
		// Mid-run registrations start at the engine clock: they never ran
		// the earlier rounds, so CatchUp must not replay them.
		StartRound: e.round,
		OnDelivery: e.cfg.OnDelivery,
	})
}

// AddUser registers a device for the user.
func (e *Engine) AddUser(cfg UserConfig) error {
	if _, dup := e.users[cfg.User]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateUser, cfg.User)
	}
	cfg.applyDefaults()
	matrix := *cfg.NetworkMatrix
	cfg.NetworkMatrix = &matrix
	dev, err := e.newDevice(&cfg)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	u := &engineUser{cfg: cfg, dev: dev}
	e.users[cfg.User] = u
	e.refreshAgg(u)
	// New devices start dirty: a RichNote controller needs rounds to climb
	// P above κ before it can park, and any pending publish will want the
	// first round anyway. The first quiescent round parks it.
	e.markDirty(u)
	at := sort.Search(len(e.order), func(i int) bool { return e.order[i].cfg.User >= cfg.User })
	e.order = slices.Insert(e.order, at, u)
	return nil
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

// Accept takes one addressed publication: it registers the recipient if
// needed (EngineConfig.AutoRegister) and appends the item, stamped with
// its recipient, to the recipient's own feed for the topic, where it
// buffers until a round the topic kind's cadence divides. No other
// follower of the topic sees it, so a fan-out costs one append per
// recipient. An error means the publication was discarded. Every decision
// here is a function of engine state, so replaying the same calls
// reproduces them.
func (e *Engine) Accept(topic pubsub.TopicID, user notif.UserID, item notif.Item) error {
	u, ok := e.users[user]
	if !ok {
		if e.cfg.AutoRegister == nil {
			return ErrUnknownUser
		}
		tmpl := *e.cfg.AutoRegister
		tmpl.User = user
		if err := e.AddUser(tmpl); err != nil {
			return err
		}
		u = e.users[user]
	}
	item.Recipient = user
	f := u.feed(topic)
	f.pending = append(f.pending, item)
	e.pending++
	e.published++
	e.markWaiting(u)
	return nil
}

// markWaiting puts a user that holds buffered addressed items on the list
// Step drains.
func (e *Engine) markWaiting(u *engineUser) {
	if u.waiting {
		return
	}
	u.waiting = true
	e.waiting = append(e.waiting, u)
	e.waitingUnsorted = true
}

// Subscribe connects the user to a broadcast topic: every item Publish
// puts on it reaches the user, draining every cadence-th round.
func (e *Engine) Subscribe(user notif.UserID, topic pubsub.TopicID, cadence int) error {
	u, ok := e.users[user]
	if !ok {
		return fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	e.broadcast = true
	return e.broker.SubscribeCadence(user, topic, pubsub.ModeRound, cadence, func(items []notif.Item) {
		for _, item := range items {
			item.Recipient = user
			e.staged = append(e.staged, stagedNotif{user: u, n: trace.Notification{Item: item, Round: e.round}})
		}
	})
}

// Publish puts an item on a broadcast topic.
func (e *Engine) Publish(topic pubsub.TopicID, item notif.Item) {
	e.broker.Publish(topic, item)
}

// stageAddressed moves every waiting user's feeds whose cadence divides
// the round into the staged batch: users ascending, feeds in canonical
// topic order, items in arrival order — per user the order the broker's
// (topic, user) walk gave. Drained buffers keep their capacity for the
// next round; a user still holding a cadence-gated feed stays waiting.
// An item stamped for someone else (an old snapshot's shared-topic list)
// is counted as flushed and discarded.
func (e *Engine) stageAddressed() {
	if e.waitingUnsorted {
		slices.SortFunc(e.waiting, func(a, b *engineUser) int { return cmp.Compare(a.cfg.User, b.cfg.User) })
		e.waitingUnsorted = false
	}
	keep := e.waiting[:0]
	for _, u := range e.waiting {
		held := false
		for i := range u.feeds {
			f := &u.feeds[i]
			if len(f.pending) == 0 {
				continue
			}
			if e.round%f.cadence != 0 {
				held = true
				continue
			}
			for _, item := range f.pending {
				if item.Recipient == u.cfg.User {
					e.staged = append(e.staged, stagedNotif{user: u, n: trace.Notification{Item: item, Round: e.round}})
				}
			}
			e.pending -= len(f.pending)
			e.delivered += uint64(len(f.pending))
			clear(f.pending)
			f.pending = f.pending[:0]
		}
		if held {
			keep = append(keep, u)
		} else {
			u.waiting = false
		}
	}
	e.waiting = keep
}

// Enqueue puts already enriched arrivals into the user's inbox; the next
// Step moves them to the scheduling queue. The items are copied.
func (e *Engine) Enqueue(user notif.UserID, items []sched.Queued) error {
	u, ok := e.users[user]
	if !ok {
		return fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	u.inbox = append(u.inbox, items...)
	e.markDirty(u)
	return nil
}

// Step executes one round: drain the broker's round-mode buffers and the
// addressed feeds the round is due for, batch-score and enrich the
// flushed publications into inboxes, then run Algorithm 2 on every dirty
// user in ascending order. It reports how many flushed publications
// enrichment rejected (they are gone) and the first error any user's
// round returned; every dirty user is visited either way.
func (e *Engine) Step() (dropped int, err error) {
	e.broker.EndRoundIndex(e.round)
	e.stageAddressed()
	dropped = e.flushStaged()
	if e.fullScan {
		for _, u := range e.order {
			e.markDirty(u)
		}
	}
	if e.dirtyUnsorted {
		// Survivors stay sorted; only markDirty appends disorder the tail.
		// One sort at the boundary keeps stepDirty allocation-free.
		sort.Slice(e.dirty, func(i, j int) bool { return e.dirty[i].cfg.User < e.dirty[j].cfg.User })
		e.dirtyUnsorted = false
	}
	err = e.stepDirty()
	e.round++
	return dropped, err
}

// markDirty queues a user for the next round step.
func (e *Engine) markDirty(u *engineUser) {
	if u.dirty {
		return
	}
	u.dirty = true
	e.dirty = append(e.dirty, u)
	e.dirtyUnsorted = true
}

// flushStaged turns the round's flushed publications into inbox entries:
// one batch scoring call across all users (amortizing the forest's
// tree-major arena walk), then per-item enrichment in staged order, which
// fixes inbox order and every queue order downstream. Recipients of new
// inbox items are marked dirty; items enrichment rejects are counted and
// dropped.
func (e *Engine) flushStaged() (dropped int) {
	if len(e.staged) == 0 {
		return 0
	}
	ns := e.stagedNs[:0]
	for i := range e.staged {
		ns = append(ns, &e.staged[i].n)
	}
	e.stagedNs = ns
	scorer := e.cfg.Enricher.Scorer()
	if bs, ok := scorer.(utility.BatchScorer); ok {
		e.stagedScores = bs.ScoreBatch(ns, e.stagedScores[:0])
	} else {
		scores := e.stagedScores[:0]
		for _, n := range ns {
			scores = append(scores, scorer.Score(n))
		}
		e.stagedScores = scores
	}
	for i := range e.staged {
		st := &e.staged[i]
		rich, err := e.cfg.Enricher.EnrichScored(&st.n, e.stagedScores[i])
		if err != nil {
			dropped++
			continue
		}
		st.user.inbox = append(st.user.inbox, sched.Queued{Rich: rich})
		e.markDirty(st.user)
	}
	clear(e.staged)
	clear(e.stagedNs)
	e.staged = e.staged[:0]
	e.stagedNs = e.stagedNs[:0]
	return dropped
}

// stepDirty is the event-driven steady-state core: step exactly the dirty
// users, park the ones that went quiescent, keep the rest. The dirty
// list is compacted in place and the loop allocates nothing — idle
// resident users cost zero here, which is what makes round cost O(dirty)
// instead of O(users).
//
// richnote:allocfree
func (e *Engine) stepDirty() error {
	var firstErr error
	keep := e.dirty[:0]
	for _, u := range e.dirty {
		stillDirty, err := e.stepUser(u)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if stillDirty {
			keep = append(keep, u)
		} else {
			u.dirty = false
		}
	}
	e.dirty = keep
	return firstErr
}

// stepUser runs one user's round: wake the device (CatchUp replays any
// parked rounds bit-identically), flush its inbox into the scheduling
// queue, execute Algorithm 2, refresh the aggregates, and report whether
// the user must stay dirty. A device whose inbox fails validation sits
// the round out (SkipRound) with its inbox intact.
//
// richnote:allocfree
func (e *Engine) stepUser(u *engineUser) (bool, error) {
	if err := u.dev.CatchUp(e.round); err != nil {
		// Unreachable: dirty-tracked devices are either current or parked
		// with empty queues. Stay dirty so the error cannot recur silently.
		e.refreshAgg(u)
		return true, err
	}
	if len(u.inbox) > 0 {
		if err := u.dev.Enqueue(u.inbox); err != nil {
			u.dev.SkipRound(e.round)
			e.refreshAgg(u)
			return true, err
		}
		clear(u.inbox)
		u.inbox = u.inbox[:0]
	}
	_, err := u.dev.RunRound(e.round)
	e.refreshAgg(u)
	return !u.dev.Quiescent(), err
}

// refreshAgg folds the user's current queue depth and controller
// telemetry into the running aggregates by delta against the user's
// cached last contribution. The MaxQ/Rounds running maxima are exact
// because both are per-user monotone; the float sums accumulate in step
// order rather than one deterministic fold order, which is fine for what
// they feed (telemetry).
//
// richnote:allocfree
func (e *Engine) refreshAgg(u *engineUser) {
	q := u.dev.QueueLen() + len(u.inbox)
	e.aggQueue += q - u.queued
	u.queued = q
	if st, ok := u.dev.ControllerStats(); ok {
		e.aggLyap.AvgQ += st.AvgQ - u.lyap.AvgQ
		e.aggLyap.AvgDrift += st.AvgDrift - u.lyap.AvgDrift
		e.aggLyap.FinalQ += st.FinalQ - u.lyap.FinalQ
		e.aggLyap.FinalP += st.FinalP - u.lyap.FinalP
		e.aggLyap.FinalLyap += st.FinalLyap - u.lyap.FinalLyap
		e.aggLyap.MaxQ = max(e.aggLyap.MaxQ, st.MaxQ)
		e.aggLyap.Rounds = max(e.aggLyap.Rounds, st.Rounds)
		u.lyap = st
	}
}

// rebuildAgg recomputes the running aggregates from scratch — restore
// and settle paths, where an O(users) walk is already being paid.
func (e *Engine) rebuildAgg() {
	e.aggQueue = 0
	e.aggLyap = lyapunov.Stats{}
	for _, u := range e.order {
		u.queued, u.lyap = 0, lyapunov.Stats{}
		e.refreshAgg(u)
	}
}

// rebuildDirty derives the dirty set from device state: dirty iff the
// device is not quiescent or holds inbox items. This is exactly the
// live set's invariant (modulo quiescent stragglers the next round would
// park, whose stepping is equivalent to parking), so a restored engine
// resumes the trajectory the exported one was on.
func (e *Engine) rebuildDirty() {
	e.dirty = e.dirty[:0]
	e.dirtyUnsorted = false
	for _, u := range e.order {
		u.dirty = !u.dev.Quiescent() || len(u.inbox) > 0
		if u.dirty {
			e.dirty = append(e.dirty, u) // order ascending ⇒ sorted
		}
	}
}

// Settle catches every parked device up to the engine clock, so that
// state read or exported afterwards is independent of which users the
// event-driven loop happened to skip. O(users); aggregates are rebuilt
// since catch-up advances controller round counters.
func (e *Engine) Settle() error {
	var firstErr error
	for _, u := range e.order {
		if err := u.dev.CatchUp(e.round); err != nil && firstErr == nil {
			firstErr = err // unreachable: parked devices have empty queues
		}
	}
	e.rebuildAgg()
	return firstErr
}

// Device returns the user's device, caught up to the engine clock, for
// inspection.
func (e *Engine) Device(user notif.UserID) (*sched.Device, error) {
	u, ok := e.users[user]
	if !ok {
		return nil, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	if err := u.dev.CatchUp(e.round); err != nil {
		return nil, err
	}
	e.refreshAgg(u)
	return u.dev, nil
}

// SetNetwork swaps a user's connectivity model (e.g. reaching home WiFi
// or entering flight mode) from the current round on; the rounds the
// device sat parked are replayed on the old model first. The new walk
// continues the user's one network stream where the old walk left it.
// Queue and budget state persist.
func (e *Engine) SetNetwork(user notif.UserID, matrix network.Matrix, start network.State) error {
	dev, err := e.Device(user)
	if err != nil {
		return err
	}
	model, err := network.NewModelSeeded(matrix, start, sim.StreamSeed(e.userSeed(user), sim.StreamNetwork))
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := model.Restore(start, dev.ExportState().NetworkDraws); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return dev.SetNetwork(model)
}
