// Package pubsub implements the topic-based publish/subscribe substrate of
// Section II: the hybrid engine Spotify deploys for notification delivery.
// Topics correspond to friends (friend feeds), artist pages and public
// playlists. Publications are notifications about friends streaming
// tracks, album releases and playlist updates.
//
// Three delivery modes are supported, mirroring the paper:
//
//   - RealTime: the publication is handed to subscribers immediately.
//   - Batch: publications accumulate and are handed over on explicit Flush
//     (Spotify's batch mode for albums/playlists).
//   - Round: the middle ground RichNote introduces — publications are
//     buffered and drained once per scheduling round.
//
// The broker is safe for concurrent publishers; handlers are invoked on
// the publishing (or flushing) goroutine.
package pubsub

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/richnote/richnote/internal/notif"
)

// TopicID names a topic: a kind plus the entity it concerns (the friend,
// artist or playlist).
type TopicID struct {
	Kind   notif.TopicKind
	Entity int64
}

// String renders the topic.
func (t TopicID) String() string { return fmt.Sprintf("%s:%d", t.Kind, t.Entity) }

// Mode selects how publications reach a subscriber.
type Mode int

// Delivery modes.
const (
	ModeRealTime Mode = iota + 1
	ModeBatch
	ModeRound
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeRealTime:
		return "real-time"
	case ModeBatch:
		return "batch"
	case ModeRound:
		return "round"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Handler consumes publications for one subscriber. Batched modes receive
// multiple items per call.
type Handler func(items []notif.Item)

// Errors returned by the broker.
var (
	ErrNilHandler    = errors.New("pubsub: nil handler")
	ErrBadMode       = errors.New("pubsub: invalid delivery mode")
	ErrNotSubscribed = errors.New("pubsub: not subscribed")
)

type subscription struct {
	user    notif.UserID
	mode    Mode
	handler Handler
	pending []notif.Item
	// cadence applies to round mode: the subscription drains every
	// cadence-th round (Section II: round duration proportional to feed
	// frequency — friend feeds every round, artist/playlist feeds every
	// few). Always >= 1.
	cadence int
}

// subKey identifies one subscription for dirty tracking.
type subKey struct {
	topic TopicID
	user  notif.UserID
}

// Broker is a topic-based pub/sub broker.
type Broker struct {
	mu     sync.Mutex
	topics map[TopicID]map[notif.UserID]*subscription

	published uint64
	delivered uint64

	// dirty tracks exactly the subscriptions holding buffered items, so a
	// flush walks O(dirty) instead of O(all topics) — on a million-user
	// shard almost every subscription is idle almost every round. The
	// counters keep Stats.Pending and PendingRound O(1); all three are
	// maintained at every pending-buffer mutation. dirtyKeys is flush
	// scratch, reused across rounds.
	dirty        map[subKey]struct{}
	dirtyKeys    []subKey
	pendingAll   int
	pendingRound int
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics: make(map[TopicID]map[notif.UserID]*subscription),
		dirty:  make(map[subKey]struct{}),
	}
}

// dropPending forgets a subscription's buffered items, maintaining the
// dirty set and pending counters. Caller holds b.mu.
func (b *Broker) dropPending(topic TopicID, sub *subscription) {
	if len(sub.pending) == 0 {
		return
	}
	b.pendingAll -= len(sub.pending)
	if sub.mode == ModeRound {
		b.pendingRound -= len(sub.pending)
	}
	delete(b.dirty, subKey{topic: topic, user: sub.user})
	sub.pending = nil
}

// Subscribe registers the user on a topic with the given mode and handler.
// Re-subscribing replaces the previous subscription (pending items are
// retained only when the mode is unchanged).
func (b *Broker) Subscribe(user notif.UserID, topic TopicID, mode Mode, h Handler) error {
	return b.SubscribeCadence(user, topic, mode, 1, h)
}

// ErrBadCadence is returned for non-positive round cadences.
var ErrBadCadence = errors.New("pubsub: cadence must be >= 1")

// SubscribeCadence registers a subscription whose round-mode drains only
// every cadence-th round, implementing the paper's per-feed round tuning:
// frequent feeds (friend activity) drain every round, infrequent ones
// (album releases, playlist updates) every few rounds. Cadence is ignored
// for real-time and batch modes.
func (b *Broker) SubscribeCadence(user notif.UserID, topic TopicID, mode Mode, cadence int, h Handler) error {
	if h == nil {
		return ErrNilHandler
	}
	if mode != ModeRealTime && mode != ModeBatch && mode != ModeRound {
		return fmt.Errorf("%w: %d", ErrBadMode, int(mode))
	}
	if cadence < 1 {
		return fmt.Errorf("%w: %d", ErrBadCadence, cadence)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.topics[topic]
	if subs == nil {
		subs = make(map[notif.UserID]*subscription)
		b.topics[topic] = subs
	}
	if prev, ok := subs[user]; ok {
		if prev.mode == mode {
			prev.handler = h
			prev.cadence = cadence
			return nil
		}
		// Mode change replaces the subscription and drops its pending items.
		b.dropPending(topic, prev)
	}
	subs[user] = &subscription{user: user, mode: mode, handler: h, cadence: cadence}
	return nil
}

// Unsubscribe removes the user's subscription from the topic. Pending
// batched items are dropped.
func (b *Broker) Unsubscribe(user notif.UserID, topic TopicID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.topics[topic]
	sub, ok := subs[user]
	if !ok {
		return fmt.Errorf("%w: user %d topic %s", ErrNotSubscribed, user, topic)
	}
	b.dropPending(topic, sub)
	delete(subs, user)
	if len(subs) == 0 {
		delete(b.topics, topic)
	}
	return nil
}

// Publish delivers the item on a topic. Real-time subscribers are invoked
// synchronously; batch and round subscribers accumulate the item.
func (b *Broker) Publish(topic TopicID, item notif.Item) {
	b.mu.Lock()
	b.published++
	var immediate []*subscription
	for _, sub := range b.topics[topic] {
		switch sub.mode {
		case ModeRealTime:
			immediate = append(immediate, sub)
			b.delivered++
		default:
			sub.pending = append(sub.pending, item)
			b.pendingAll++
			if sub.mode == ModeRound {
				b.pendingRound++
			}
			if len(sub.pending) == 1 {
				b.dirty[subKey{topic: topic, user: sub.user}] = struct{}{}
			}
		}
	}
	b.mu.Unlock()
	// Invoke handlers outside the lock: handlers may re-enter the broker.
	for _, sub := range immediate {
		sub.handler([]notif.Item{item})
	}
}

// topicLess orders topics by kind then entity: the canonical topic order
// flushes drain in.
func topicLess(a, b TopicID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Entity < b.Entity
}

// flushModes drains pending items of subscriptions matching the predicate,
// grouped per subscription. Only the dirty set — subscriptions actually
// holding buffered items — is visited, sorted into the same canonical
// order the historical all-topics walk produced (topic by kind/entity,
// then user ascending), so handler invocation order — and therefore any
// downstream queue order — is deterministic and unchanged while the cost
// drops from O(all topics) to O(dirty log dirty). Dirty entries whose
// subscription does not match (a cadence-gated round feed, a batch feed
// during EndRound) keep their mark for a later flush.
func (b *Broker) flushModes(match func(*subscription) bool) {
	type flushUnit struct {
		handler Handler
		items   []notif.Item
	}
	b.mu.Lock()
	keys := b.dirtyKeys[:0]
	for k := range b.dirty {
		keys = append(keys, k)
	}
	b.dirtyKeys = keys
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].topic != keys[j].topic {
			return topicLess(keys[i].topic, keys[j].topic)
		}
		return keys[i].user < keys[j].user
	})
	var units []flushUnit
	for _, k := range keys {
		sub := b.topics[k.topic][k.user]
		if sub == nil || len(sub.pending) == 0 {
			delete(b.dirty, k) // defensive: a stale mark cannot survive
			continue
		}
		if !match(sub) {
			continue
		}
		units = append(units, flushUnit{handler: sub.handler, items: sub.pending})
		b.delivered += uint64(len(sub.pending))
		b.pendingAll -= len(sub.pending)
		if sub.mode == ModeRound {
			b.pendingRound -= len(sub.pending)
		}
		sub.pending = nil
		delete(b.dirty, k)
	}
	b.mu.Unlock()
	for _, u := range units {
		u.handler(u.items)
	}
}

// FlushBatch drains batch-mode subscriptions (Spotify's batch delivery).
func (b *Broker) FlushBatch() {
	b.flushModes(func(s *subscription) bool { return s.mode == ModeBatch })
}

// EndRound drains every round-mode subscription regardless of cadence.
func (b *Broker) EndRound() {
	b.flushModes(func(s *subscription) bool { return s.mode == ModeRound })
}

// EndRoundIndex drains round-mode subscriptions whose cadence divides the
// given round index; the Live scheduler calls this once per round.
func (b *Broker) EndRoundIndex(round int) {
	b.flushModes(func(s *subscription) bool {
		return s.mode == ModeRound && round%s.cadence == 0
	})
}

// Stats reports broker counters.
type Stats struct {
	Published uint64
	Delivered uint64
	Topics    int
	// Pending counts publications buffered in batch- and round-mode
	// subscriptions, awaiting a flush. The live server exposes it as a
	// queue-depth gauge and consults it for backpressure.
	Pending int
}

// Stats returns a snapshot of broker counters. Pending is a maintained
// counter, so the call is O(1) regardless of topic count.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{Published: b.published, Delivered: b.delivered, Topics: len(b.topics), Pending: b.pendingAll}
}

// PendingRound counts publications buffered in round-mode subscriptions
// only — the backlog the next EndRound drain will hand to handlers. A
// maintained counter: O(1), called once per round by the server's
// snapshot path.
func (b *Broker) PendingRound() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pendingRound
}
