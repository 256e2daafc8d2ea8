package core

import (
	"bytes"
	"slices"
	"testing"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/wal"
)

// offlineMatrix keeps a device off the network for good, so whatever
// reaches its scheduling queue stays there, in arrival order, to be read.
var offlineMatrix = network.Matrix{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}}

// offlineEngine auto-registers permanently offline users.
func offlineEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(EngineConfig{
		Seed:         3,
		Enricher:     testEnricher(t),
		AutoRegister: &UserConfig{NetworkMatrix: &offlineMatrix, StartState: network.StateOff, WeeklyBudgetBytes: 1 << 30},
	})
}

func mustAccept(t *testing.T, e *Engine, topic pubsub.TopicID, user notif.UserID, id int64) {
	t.Helper()
	if err := e.Accept(topic, user, audioItem(id)); err != nil {
		t.Fatal(err)
	}
}

func mustStep(t *testing.T, e *Engine) {
	t.Helper()
	if dropped, err := e.Step(); err != nil || dropped != 0 {
		t.Fatalf("round %d: dropped %d, err %v", e.Round()-1, dropped, err)
	}
}

// queuedIDs lists the item ids in the user's scheduling queue, checking
// every one is stamped for that user.
func queuedIDs(t *testing.T, e *Engine, user notif.UserID) []int64 {
	t.Helper()
	dev, err := e.Device(user)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, q := range dev.ExportState().Queue {
		if q.Rich.Item.Recipient != user {
			t.Fatalf("user %d queued item %d stamped for user %d", user, q.Rich.Item.ID, q.Rich.Item.Recipient)
		}
		ids = append(ids, int64(q.Rich.Item.ID))
	}
	return ids
}

// TestAddressedFanoutCostsOnePerRecipient: 64 followers of one shared
// topic, two envelopes each. The engine holds one copy per envelope — not
// one per (envelope, follower) — and every follower gets exactly its own.
func TestAddressedFanoutCostsOnePerRecipient(t *testing.T) {
	const followers = 64
	e := offlineEngine(t)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 9}
	for pass := int64(0); pass < 2; pass++ {
		for u := int64(1); u <= followers; u++ {
			mustAccept(t, e, topic, notif.UserID(u), pass*1000+u)
		}
	}
	if got := e.Stats().BrokerPending; got != 2*followers {
		t.Fatalf("BrokerPending = %d after %d envelopes, want one each", got, 2*followers)
	}
	mustStep(t, e)
	if got := e.Stats().BrokerPending; got != 0 {
		t.Fatalf("BrokerPending = %d after the drain, want 0", got)
	}
	if len(e.waiting) != 0 {
		t.Fatalf("%d users still waiting with nothing held", len(e.waiting))
	}
	for u := int64(1); u <= followers; u++ {
		if got, want := queuedIDs(t, e, notif.UserID(u)), []int64{u, 1000 + u}; !slices.Equal(got, want) {
			t.Fatalf("user %d queued %v, want %v", u, got, want)
		}
	}
}

// TestAddressedInboxOrder: within a round a user's arrivals are ordered by
// topic (kind, then entity) and within a topic by arrival — the order the
// broker's (topic, user) walk produced, which every queue order downstream
// inherits. Round 0 is due for every cadence.
func TestAddressedInboxOrder(t *testing.T) {
	e := offlineEngine(t)
	friend := func(entity int64) pubsub.TopicID {
		return pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: entity}
	}
	artist := pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: 1}
	playlist := pubsub.TopicID{Kind: notif.TopicPlaylist, Entity: 1}
	// Accepted deliberately out of canonical order, interleaved across two
	// users, user 2 first.
	for _, p := range []struct {
		topic pubsub.TopicID
		user  notif.UserID
		id    int64
	}{
		{playlist, 2, 1}, {artist, 1, 2}, {friend(7), 1, 3}, {friend(2), 2, 4},
		{friend(2), 1, 5}, {playlist, 1, 6}, {friend(7), 1, 7}, {artist, 2, 8},
		{friend(2), 1, 9}, {playlist, 2, 10},
	} {
		mustAccept(t, e, p.topic, p.user, p.id)
	}
	mustStep(t, e)
	if got, want := queuedIDs(t, e, 1), []int64{5, 9, 3, 7, 2, 6}; !slices.Equal(got, want) {
		t.Fatalf("user 1 queued %v, want %v", got, want)
	}
	if got, want := queuedIDs(t, e, 2), []int64{4, 8, 1, 10}; !slices.Equal(got, want) {
		t.Fatalf("user 2 queued %v, want %v", got, want)
	}
}

// TestAddressedCadenceHolds: artist-page feeds drain on even rounds and
// playlist feeds every fourth; in between, the held items are counted and
// their user stays on the waiting list.
func TestAddressedCadenceHolds(t *testing.T) {
	e := offlineEngine(t)
	mustStep(t, e) // round 0, so the publishes below land before round 1
	mustAccept(t, e, pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}, 1, 1)
	mustAccept(t, e, pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: 1}, 1, 2)
	mustAccept(t, e, pubsub.TopicID{Kind: notif.TopicPlaylist, Entity: 1}, 1, 3)
	mustAccept(t, e, pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}, 2, 4)
	for _, want := range []struct {
		pending, waiting int
		queued           []int64
	}{
		{2, 1, []int64{1}},       // round 1: friend feed only
		{1, 1, []int64{1, 2}},    // round 2: artist page
		{1, 1, []int64{1, 2}},    // round 3: nothing due
		{0, 0, []int64{1, 2, 3}}, // round 4: playlist
	} {
		round := e.Round()
		mustStep(t, e)
		if got := e.Stats().BrokerPending; got != want.pending {
			t.Fatalf("after round %d: BrokerPending = %d, want %d", round, got, want.pending)
		}
		if len(e.waiting) != want.waiting || (want.waiting == 1 && e.waiting[0].cfg.User != 1) {
			t.Fatalf("after round %d: %d users waiting, want %d (user 1 while it holds a feed)", round, len(e.waiting), want.waiting)
		}
		if got := queuedIDs(t, e, 1); !slices.Equal(got, want.queued) {
			t.Fatalf("after round %d: user 1 queued %v, want %v", round, got, want.queued)
		}
	}
}

// TestAddressedStateRoundTrip: an engine holding cadence-gated items
// encodes, decodes into a fresh engine and encodes to the same bytes, and
// the restored engine then walks the same four rounds as the original.
func TestAddressedStateRoundTrip(t *testing.T) {
	orig := dirtyEngine(t, false)
	driveDirty(t, orig, genDirtyWorkload(5, 6, 9))
	artist := pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: 2}
	playlist := pubsub.TopicID{Kind: notif.TopicPlaylist, Entity: 3}
	for i, user := range []notif.UserID{4, 2, 4, 6} {
		mustAccept(t, orig, artist, user, int64(9000+i))
		mustAccept(t, orig, playlist, user, int64(9100+i))
	}
	if _, err := orig.Step(); err != nil { // round 9: neither cadence divides it
		t.Fatal(err)
	}
	if orig.Stats().BrokerPending != 8 {
		t.Fatalf("BrokerPending = %d, want the 8 held items", orig.Stats().BrokerPending)
	}

	state := engineState(t, orig)
	restored := emptyDirtyEngine(t)
	c := wal.DecodeFrom(state)
	restored.StateFields(&c, nil)
	if err := c.Finish("engine state"); err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats().BrokerPending; got != 8 {
		t.Fatalf("restored BrokerPending = %d, want 8", got)
	}
	if got := engineState(t, restored); !bytes.Equal(got, state) {
		t.Fatal("restored engine encodes differently")
	}
	for i := 0; i < 4; i++ {
		round := orig.Round()
		_, errOrig := orig.Step()
		_, errRestored := restored.Step()
		if (errOrig == nil) != (errRestored == nil) {
			t.Fatalf("round %d: original err %v, restored err %v", round, errOrig, errRestored)
		}
		if !bytes.Equal(engineState(t, restored), engineState(t, orig)) {
			t.Fatalf("round %d: restored engine diverged from the original", round)
		}
	}
	if got := orig.Stats().BrokerPending; got != 0 {
		t.Fatalf("BrokerPending = %d after a playlist round, want 0", got)
	}
}

// TestAddressedRestoreDiscardsForeignItems: snapshots written while
// followers of a topic shared one broker list hold, in each follower's
// list, the other followers' items too. Such a state still restores; the
// foreign items are counted while held and thrown away at the flush, as
// the per-subscription filter did.
func TestAddressedRestoreDiscardsForeignItems(t *testing.T) {
	src := offlineEngine(t)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 5}
	mustAccept(t, src, topic, 1, 1)
	mustAccept(t, src, topic, 2, 2)
	mustStep(t, src)
	// Re-describe the state with the broker section of an old snapshot:
	// both users' lists hold both of round 1's items.
	old := func(id int64, rcpt notif.UserID) notif.Item {
		item := audioItem(id)
		item.Recipient = rcpt
		return item
	}
	shared := []notif.Item{old(11, 1), old(12, 2), old(13, 1)}
	if err := src.Settle(); err != nil {
		t.Fatal(err)
	}
	var enc wal.Codec
	wal.Int(&enc, &src.round)
	users := make([]UserState, len(src.order))
	for i, u := range src.order {
		users[i] = UserState{Cfg: u.cfg, Topics: u.topics(), Device: u.dev.ExportState()}
	}
	wal.Slice(&enc, &users, 8, "users", UserStateFields)
	var inbox []UserQueue
	wal.Slice(&enc, &inbox, 12, "inbox users", UserQueueFields)
	BrokerStateFields(&enc, &BrokerState{
		Published: 5,
		Delivered: 4,
		Pending: []PendingState{
			{Topic: topic, User: 1, Items: shared},
			{Topic: topic, User: 2, Items: shared},
		},
	})
	collector := src.col.ExportState()
	CollectorStateFields(&enc, &collector)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}

	e := offlineEngine(t)
	c := wal.DecodeFrom(enc.Bytes())
	e.StateFields(&c, nil)
	if err := c.Finish("old engine state"); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().BrokerPending; got != 6 {
		t.Fatalf("BrokerPending = %d, want all 6 stored copies", got)
	}
	if got := engineState(t, e); !bytes.Equal(got, enc.Bytes()) {
		t.Fatal("an old state does not re-encode to its own bytes")
	}
	mustStep(t, e)
	if got := e.Stats().BrokerPending; got != 0 {
		t.Fatalf("BrokerPending = %d after the flush, want 0", got)
	}
	if got, want := queuedIDs(t, e, 1), []int64{1, 11, 13}; !slices.Equal(got, want) {
		t.Fatalf("user 1 queued %v, want %v", got, want)
	}
	if got, want := queuedIDs(t, e, 2), []int64{2, 12}; !slices.Equal(got, want) {
		t.Fatalf("user 2 queued %v, want %v", got, want)
	}
	if e.published != 5 || e.delivered != 10 {
		t.Fatalf("counters %d/%d after the flush, want 5 published and 4+6 flushed", e.published, e.delivered)
	}
}

// TestBroadcastPathUnchanged: Subscribe/Publish still go through the
// broker — every subscriber gets every item at its cadence, the copies
// count as pending — and touch nothing of the addressed path.
func TestBroadcastPathUnchanged(t *testing.T) {
	e := offlineEngine(t)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	for u := notif.UserID(1); u <= 2; u++ {
		if err := e.AddUser(UserConfig{User: u, NetworkMatrix: &offlineMatrix, StartState: network.StateOff}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Subscribe(1, topic, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Subscribe(2, topic, 2); err != nil {
		t.Fatal(err)
	}
	mustStep(t, e) // round 0
	for id := int64(1); id <= 3; id++ {
		e.Publish(topic, audioItem(id))
	}
	if got := e.Stats().BrokerPending; got != 6 {
		t.Fatalf("BrokerPending = %d, want 3 items x 2 subscribers", got)
	}
	if len(e.waiting) != 0 || e.pending != 0 {
		t.Fatalf("broadcast publishes reached the addressed path: %d waiting, %d pending", len(e.waiting), e.pending)
	}
	mustStep(t, e) // round 1: cadence 1 drains, cadence 2 holds
	if got := e.Stats().BrokerPending; got != 3 {
		t.Fatalf("BrokerPending = %d after round 1, want user 2's 3 held copies", got)
	}
	mustStep(t, e) // round 2
	for u := notif.UserID(1); u <= 2; u++ {
		if got, want := queuedIDs(t, e, u), []int64{1, 2, 3}; !slices.Equal(got, want) {
			t.Fatalf("user %d queued %v, want %v", u, got, want)
		}
	}
}

// TestAcceptSteadyStateZeroAlloc: once a recipient is registered and its
// feed's buffer has grown to the round's burst, Accept is an append.
func TestAcceptSteadyStateZeroAlloc(t *testing.T) {
	e := offlineEngine(t)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	item := audioItem(1)
	const users, burst = 16, 4
	publish := func() {
		for u := notif.UserID(1); u <= users; u++ {
			for i := 0; i < burst; i++ {
				if err := e.Accept(topic, u, item); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	publish()
	e.stageAddressed()
	clear(e.staged)
	e.staged = e.staged[:0]
	allocs := testing.AllocsPerRun(50, func() {
		publish()
		e.stageAddressed()
		e.staged = e.staged[:0]
	})
	if allocs != 0 {
		t.Fatalf("Accept + stageAddressed allocated %.1f objects per cycle in steady state, want 0", allocs)
	}
}
