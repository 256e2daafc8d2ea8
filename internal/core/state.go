package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/wal"
)

// The engine's canonical state encoding: everything that must survive a
// crash or a handoff for the schedule to continue bit-identically. Every
// byte string is defined by one Fields function run in either direction
// (wal.Codec); the server's testdata/golden pins the resulting format.

// UserState and UserQueue are the per-user units of the state walk, in
// the plain exported forms the owner methods trade in.
type UserState struct {
	Cfg    UserConfig
	Topics []pubsub.TopicID // ascending
	Device sched.DeviceState
}

// UserStateFields describes one user's unit of the state walk.
func UserStateFields(c *wal.Codec, u *UserState) {
	userConfigFields(c, &u.Cfg)
	wal.Slice(c, &u.Topics, 16, "topics", TopicFields)
	deviceStateFields(c, &u.Device)
}

// UserQueue is one user's inbox backlog.
type UserQueue struct {
	User  notif.UserID
	Items []sched.Queued
}

// UserQueueFields describes one user's inbox backlog.
func UserQueueFields(c *wal.Codec, q *UserQueue) {
	wal.Int(c, &q.User)
	wal.Slice(c, &q.Items, 8, "inbox items", queuedFields)
}

// StateFields is the one description of everything in an engine that must
// survive a crash, in canonical order (users ascending throughout; see
// each component's ExportState for its own ordering guarantees): the
// round, then whatever host describes — the place the snapshot format
// gives the host's own counters — then users, inboxes, broker and
// collector. Encoding, it settles the engine, so the bytes do not depend
// on which users are parked, then exports the live components and writes
// them. Decoding, it reads them and rebuilds the engine, which must be
// freshly constructed: devices are re-created from their stored configs
// (re-keying their random streams), subscriptions re-registered, and every
// component restored through its own owner method. A walk that cannot
// proceed — a decode into a used engine, an encode of broadcast
// subscriptions, which the format cannot represent — latches its reason
// in c (Codec.Fail) and stops; c.Err or Finish reports it.
func (e *Engine) StateFields(c *wal.Codec, host func(*wal.Codec)) {
	dec := c.Decoding()
	if dec && len(e.order) != 0 {
		c.Fail(fmt.Errorf("core: restore into an engine with %d users already registered", len(e.order)))
		return
	}
	if !dec {
		if e.broadcast {
			c.Fail(errors.New("core: broadcast subscriptions have no encoding"))
			return
		}
		if err := e.Settle(); err != nil {
			c.Fail(err)
			return
		}
	}
	wal.Int(c, &e.round)
	if host != nil {
		host(c)
	}

	nUsers := len(e.order)
	c.Count(&nUsers, 8, "users")
	for i := 0; i < nUsers && c.Err() == nil; i++ {
		var u UserState
		if !dec {
			eu := e.order[i]
			u = UserState{Cfg: eu.cfg, Topics: eu.topics(), Device: eu.dev.ExportState()}
		}
		UserStateFields(c, &u)
		if dec && c.Err() == nil {
			c.Fail(e.restoreUser(&u))
		}
	}

	var inbox []UserQueue
	if !dec {
		for _, u := range e.order {
			if len(u.inbox) > 0 {
				inbox = append(inbox, UserQueue{User: u.cfg.User, Items: u.inbox})
			}
		}
	}
	wal.Slice(c, &inbox, 12, "inbox users", UserQueueFields)

	var bs BrokerState
	var cs metrics.CollectorState
	if !dec {
		bs, cs = e.exportFeeds(), e.col.ExportState()
	}
	BrokerStateFields(c, &bs)
	CollectorStateFields(c, &cs)

	if !dec || c.Err() != nil {
		return
	}
	for _, q := range inbox {
		u, ok := e.users[q.User]
		if !ok {
			c.Fail(fmt.Errorf("core: inbox for unregistered user %d", q.User))
			return
		}
		u.inbox = q.Items
	}
	if err := e.restoreFeeds(bs); err != nil {
		c.Fail(err)
		return
	}
	if err := e.col.RestoreState(cs); err != nil {
		c.Fail(err)
		return
	}
	// Derive the event-driven bookkeeping from the restored ground truth:
	// the dirty set is exactly {¬quiescent ∨ inbox≠∅} and the running
	// aggregates re-fold from per-device state, so replay drives the same
	// dirty-set path the exporting process was on.
	e.rebuildAgg()
	e.rebuildDirty()
}

// restoreUser is the decode side of one user: register, re-subscribe,
// restore the device.
func (e *Engine) restoreUser(s *UserState) error {
	if err := e.AddUser(s.Cfg); err != nil {
		return err
	}
	u := e.users[s.Cfg.User]
	for _, topic := range s.Topics {
		u.feed(topic)
	}
	return u.dev.RestoreState(s.Device)
}

// topics lists the user's addressed subscriptions, ascending.
func (u *engineUser) topics() []pubsub.TopicID {
	topics := make([]pubsub.TopicID, len(u.feeds))
	for i := range u.feeds {
		topics[i] = u.feeds[i].topic
	}
	return topics
}

// BrokerState is the state format's broker section: the publish and flush
// counters and every non-empty addressed feed, ordered by topic (kind,
// entity), then user. The items alias the feeds' buffers.
type BrokerState struct {
	Published uint64
	Delivered uint64
	Pending   []PendingState
}

// PendingState is one feed's buffered publications.
type PendingState struct {
	Topic pubsub.TopicID
	User  notif.UserID
	Items []notif.Item
}

func (e *Engine) exportFeeds() BrokerState {
	bs := BrokerState{Published: e.published, Delivered: e.delivered}
	for _, u := range e.waiting {
		for i := range u.feeds {
			if f := &u.feeds[i]; len(f.pending) > 0 {
				bs.Pending = append(bs.Pending, PendingState{Topic: f.topic, User: u.cfg.User, Items: f.pending})
			}
		}
	}
	slices.SortFunc(bs.Pending, func(a, b PendingState) int {
		if c := compareTopics(a.Topic, b.Topic); c != 0 {
			return c
		}
		return cmp.Compare(a.User, b.User)
	})
	return bs
}

// restoreFeeds installs the counters and pending lists into the users
// restoreUser rebuilt; a list must name a subscription one of them holds.
// Lists written before feeds were per-user may carry other followers'
// items; they are kept as they are and discarded when the feed flushes.
func (e *Engine) restoreFeeds(bs BrokerState) error {
	e.published, e.delivered = bs.Published, bs.Delivered
	for _, p := range bs.Pending {
		u, i := e.users[p.User], 0
		ok := u != nil
		if ok {
			i, ok = u.findFeed(p.Topic)
		}
		if !ok {
			return fmt.Errorf("core: pending items for user %d on %s, which it is not subscribed to", p.User, p.Topic)
		}
		f := &u.feeds[i]
		e.pending += len(p.Items) - len(f.pending)
		f.pending = p.Items
		e.markWaiting(u)
	}
	return nil
}

// --- value descriptions ------------------------------------------------------

// TopicFields describes a topic identifier.
func TopicFields(c *wal.Codec, t *pubsub.TopicID) {
	wal.Int(c, &t.Kind)
	c.I64(&t.Entity)
}

// ItemFields describes a publication.
func ItemFields(c *wal.Codec, it *notif.Item) {
	wal.Int(c, &it.ID)
	wal.Int(c, &it.Kind)
	wal.Int(c, &it.Topic)
	wal.Int(c, &it.Sender)
	wal.Int(c, &it.Recipient)
	c.Time(&it.CreatedAt)
	c.I64(&it.Meta.TrackID)
	c.I64(&it.Meta.AlbumID)
	c.I64(&it.Meta.ArtistID)
	c.F64(&it.Meta.TrackPopularity)
	c.F64(&it.Meta.AlbumPopularity)
	c.F64(&it.Meta.ArtistPopularity)
	wal.Int(c, &it.Meta.Genre)
	c.Str(&it.Meta.URL)
	c.F64(&it.TieStrength)
}

func presentationFields(c *wal.Codec, p *notif.Presentation) {
	wal.Int(c, &p.Level)
	c.I64(&p.Size)
	c.F64(&p.Utility)
	c.F64(&p.DurationSec)
	wal.Int(c, &p.SampleRateHz)
	wal.Int(c, &p.BitrateKbps)
	c.Str(&p.Label)
}

func queuedFields(c *wal.Codec, q *sched.Queued) {
	ItemFields(c, &q.Rich.Item)
	c.F64(&q.Rich.ContentUtility)
	wal.Slice(c, &q.Rich.Presentations, 44, "presentations", presentationFields)
	wal.Int(c, &q.Rich.ArrivedRound)
	c.Bool(&q.Clicked)
	wal.Int(c, &q.ClickRound)
	c.F64(&q.TrueUc)
	wal.Int(c, &q.Attempts)
	wal.Int(c, &q.LevelCap)
}

func userConfigFields(c *wal.Codec, cfg *UserConfig) {
	wal.Int(c, &cfg.User)
	wal.Int(c, &cfg.Strategy)
	wal.Int(c, &cfg.FixedLevel)
	c.I64(&cfg.WeeklyBudgetBytes)
	c.F64(&cfg.V)
	c.F64(&cfg.KappaJ)
	if c.Decoding() {
		cfg.NetworkMatrix = new(network.Matrix)
	}
	for row := range cfg.NetworkMatrix {
		for col := range cfg.NetworkMatrix[row] {
			c.F64(&cfg.NetworkMatrix[row][col])
		}
	}
	wal.Int(c, &cfg.StartState)
	wal.Int(c, &cfg.MaxDeliveriesPerRound)
	wal.Int(c, &cfg.MaxAttempts)
	c.Bool(&cfg.DegradeOnFailure)
}

func deviceStateFields(c *wal.Codec, s *sched.DeviceState) {
	wal.Slice(c, &s.Queue, 120, "device queue", queuedFields)
	c.F64(&s.BudgetBase)
	c.I64(&s.BudgetPendingRounds)
	c.F64(&s.BudgetDebited)
	c.F64(&s.BudgetRefunded)
	c.F64(&s.BatteryLevel)
	c.U64(&s.BatteryDraws)
	wal.Int(c, &s.NetworkState)
	c.U64(&s.NetworkDraws)
	c.U64(&s.FaultDraws)
	wal.Int(c, &s.NextRound)
	c.Bool(&s.HasController)
	if s.HasController {
		controllerFields(c, &s.Controller)
	}
}

func controllerFields(c *wal.Codec, s *lyapunov.State) {
	c.F64(&s.Q)
	c.F64(&s.P)
	c.F64(&s.MaxQ)
	c.F64(&s.SumQ)
	wal.Int(c, &s.Rounds)
	c.F64(&s.DriftSum)
	c.F64(&s.LastL)
	c.Bool(&s.Initialized)
}

// BrokerStateFields describes the broker section.
func BrokerStateFields(c *wal.Codec, bs *BrokerState) {
	c.U64(&bs.Published)
	c.U64(&bs.Delivered)
	wal.Slice(c, &bs.Pending, 28, "pending buffers", func(c *wal.Codec, p *PendingState) {
		TopicFields(c, &p.Topic)
		wal.Int(c, &p.User)
		wal.Slice(c, &p.Items, 8, "pending items", ItemFields)
	})
}

// CollectorStateFields describes the metrics collector's ground truth.
func CollectorStateFields(c *wal.Codec, cs *metrics.CollectorState) {
	wal.Slice(c, &cs.Users, 16, "metric users", userMetricsFields)
	wal.Slice(c, &cs.Delays, 16, "delays", func(c *wal.Codec, d *metrics.DelayCount) {
		wal.Int(c, &d.Delay)
		wal.Int(c, &d.Count)
	})
}

// LevelCountFields describes one presentation-level tally.
func LevelCountFields(c *wal.Codec, lc *metrics.LevelCount) {
	wal.Int(c, &lc.Level)
	wal.Int(c, &lc.Count)
}

func userMetricsFields(c *wal.Codec, u *metrics.UserState) {
	wal.Int(c, &u.User)
	wal.Int(c, &u.Arrived)
	wal.Int(c, &u.ClickedTotal)
	wal.Int(c, &u.Delivered)
	c.I64(&u.DeliveredBytes)
	c.F64(&u.UtilitySum)
	c.F64(&u.TrueUtilitySum)
	wal.Int(c, &u.ClickedAndDelivered)
	wal.Int(c, &u.DeliveredBeforeClick)
	c.F64(&u.EnergyJ)
	wal.Int(c, &u.DelayRoundsSum)
	wal.Slice(c, &u.LevelCounts, 16, "level counts", LevelCountFields)
	wal.Int(c, &u.TransferFailures)
	wal.Int(c, &u.RetriedDeliveries)
	wal.Int(c, &u.DegradedDeliveries)
	wal.Int(c, &u.Dropped)
	c.F64(&u.WastedEnergyJ)
}
