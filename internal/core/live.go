package core

import (
	"errors"
	"time"

	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/sim"
	"github.com/richnote/richnote/internal/utility"
)

// LiveConfig configures a Live service.
type LiveConfig struct {
	// Epoch anchors virtual time; defaults to 2015-01-01 UTC.
	Epoch time.Time
	// RoundLen defaults to one hour.
	RoundLen time.Duration
	// Scorer provides content utility for incoming items; defaults to a
	// neutral constant scorer (no personalization).
	Scorer utility.ContentScorer
	// Generator builds presentation ladders; defaults to the paper's
	// six-level audio generator with Equation 8 utilities.
	Generator media.Generator
	// OnDelivery, when set, observes every delivered notification, ordered
	// by round and, within a round, by ascending user.
	OnDelivery func(notif.Delivery)
	// Seed drives per-user randomness.
	Seed int64
}

// Live is a kernel-driven notification service: one Engine on the
// sim.Kernel clock. Publications enter through the engine's pub/sub
// broker, are enriched, queued on per-user devices and delivered by the
// round scheduler.
type Live struct {
	kernel *sim.Kernel
	eng    *Engine
}

// NewLive validates the configuration and builds the service.
func NewLive(cfg LiveConfig) (*Live, error) {
	enricher, err := NewEnricher(cfg.Scorer, cfg.Generator)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(EngineConfig{
		Epoch:      cfg.Epoch,
		RoundLen:   cfg.RoundLen,
		Seed:       cfg.Seed,
		Enricher:   enricher,
		OnDelivery: cfg.OnDelivery,
	})
	return &Live{kernel: sim.NewKernel(eng.cfg.Epoch), eng: eng}, nil
}

// Collector exposes the running metrics.
func (l *Live) Collector() *metrics.Collector { return l.eng.Collector() }

// Round returns the next round index to execute.
func (l *Live) Round() int { return l.eng.Round() }

// AddUser registers a device for the user. The weekly budget must be
// stated: a live device has no default plan.
func (l *Live) AddUser(cfg UserConfig) error {
	if cfg.WeeklyBudgetBytes <= 0 {
		return errors.New("core: weekly budget must be positive")
	}
	return l.eng.AddUser(cfg)
}

// Subscribe connects the user's device to a broker topic in round mode:
// publications buffer in the broker and drain into the device's scheduling
// queue at the next round boundary.
func (l *Live) Subscribe(user notif.UserID, topic pubsub.TopicID) error {
	return l.eng.Subscribe(user, topic, 1)
}

// SubscribeCadence subscribes with a per-topic round cadence: publications
// buffer in the broker and drain into the device every cadence-th round.
// This is the paper's Section II round tuning — frequent friend feeds at
// cadence 1, infrequent artist/playlist feeds at larger cadences.
func (l *Live) SubscribeCadence(user notif.UserID, topic pubsub.TopicID, cadence int) error {
	return l.eng.Subscribe(user, topic, cadence)
}

// Publish injects a publication on a topic.
func (l *Live) Publish(topic pubsub.TopicID, item notif.Item) {
	l.eng.Publish(topic, item)
}

// StepRound executes one round: the broker drains round-mode
// subscriptions, inboxes flush into scheduling queues and every device
// with work runs Algorithm 2 once. It returns the first device error.
func (l *Live) StepRound() error {
	_, err := l.eng.Step()
	return err
}

// RunRounds executes n rounds through the event kernel, which keeps the
// virtual clock consistent with round boundaries.
func (l *Live) RunRounds(n int) error {
	if n <= 0 {
		return nil
	}
	var firstErr error
	roundLen := l.eng.cfg.RoundLen
	start := time.Duration(l.Round()) * roundLen
	until := time.Duration(l.Round()+n) * roundLen
	err := l.kernel.Every(start, roundLen, until, func(k *sim.Kernel) {
		if err := l.StepRound(); err != nil && firstErr == nil {
			firstErr = err
			k.Stop()
		}
	})
	if err != nil {
		return err
	}
	l.kernel.RunUntil(until)
	return firstErr
}

// SetNetwork swaps a user's connectivity model mid-run (e.g. reaching home
// WiFi or entering flight mode). Queue and budget state persist.
func (l *Live) SetNetwork(user notif.UserID, matrix network.Matrix, start network.State) error {
	return l.eng.SetNetwork(user, matrix, start)
}

// Device returns the device registered for a user, for inspection.
func (l *Live) Device(user notif.UserID) (*sched.Device, error) {
	return l.eng.Device(user)
}
