package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
)

func newTestLive(t *testing.T) *Live {
	t.Helper()
	l, err := NewLive(LiveConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	return l
}

func alwaysCell() *network.Matrix {
	m := network.AlwaysCellMatrix()
	return &m
}

func addTestUser(t *testing.T, l *Live, user notif.UserID) {
	t.Helper()
	if err := l.AddUser(UserConfig{
		User:              user,
		WeeklyBudgetBytes: 50 << 20,
		NetworkMatrix:     alwaysCell(),
	}); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
}

func audioItem(id int64) notif.Item {
	return notif.Item{
		ID:        notif.ItemID(id),
		Kind:      notif.KindAudio,
		Topic:     notif.TopicFriendFeed,
		CreatedAt: time.Date(2015, 1, 1, 10, 0, 0, 0, time.UTC),
		Meta:      notif.Metadata{TrackID: id, TrackPopularity: 60},
	}
}

func TestLiveEndToEndDelivery(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 5}
	if err := l.Subscribe(1, topic); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := int64(0); i < 8; i++ {
		l.Publish(topic, audioItem(100+i))
	}
	if err := l.RunRounds(12); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	rep := l.Collector().Aggregate()
	if rep.Arrived != 8 {
		t.Fatalf("arrived %d, want 8", rep.Arrived)
	}
	if rep.Delivered != 8 {
		t.Fatalf("delivered %d, want all 8", rep.Delivered)
	}
	if l.Round() != 12 {
		t.Fatalf("round %d after 12 rounds, want 12", l.Round())
	}
}

func TestLiveAddUserValidation(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	if err := l.AddUser(UserConfig{User: 1, WeeklyBudgetBytes: 1 << 20}); err == nil {
		t.Fatal("duplicate user accepted")
	}
	if err := l.AddUser(UserConfig{User: 2}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if err := l.AddUser(UserConfig{User: 3, WeeklyBudgetBytes: 1 << 20, Strategy: StrategyKind(9)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestLiveSubscribeUnknownUser(t *testing.T) {
	l := newTestLive(t)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 5}
	if err := l.Subscribe(99, topic); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestLivePublishWithoutSubscribersIsHarmless(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	l.Publish(pubsub.TopicID{Kind: notif.TopicPlaylist, Entity: 1}, audioItem(1))
	if err := l.RunRounds(2); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if rep := l.Collector().Aggregate(); rep.Arrived != 0 {
		t.Fatalf("arrived %d from unsubscribed topic, want 0", rep.Arrived)
	}
}

func TestLiveFanoutToMultipleSubscribers(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	addTestUser(t, l, 2)
	topic := pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: 3}
	for _, u := range []notif.UserID{1, 2} {
		if err := l.Subscribe(u, topic); err != nil {
			t.Fatalf("Subscribe(%d): %v", u, err)
		}
	}
	l.Publish(topic, audioItem(7))
	if err := l.RunRounds(4); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	rep := l.Collector().Aggregate()
	if rep.Arrived != 2 {
		t.Fatalf("arrived %d, want one per subscriber", rep.Arrived)
	}
	if rep.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", rep.Delivered)
	}
}

func TestLiveOnDeliveryHook(t *testing.T) {
	fired := 0
	l, err := NewLive(LiveConfig{
		Seed:       2,
		OnDelivery: func(notif.Delivery) { fired++ },
	})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	addTestUser(t, l, 1)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	if err := l.Subscribe(1, topic); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	l.Publish(topic, audioItem(1))
	if err := l.RunRounds(6); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if fired == 0 {
		t.Fatal("OnDelivery hook never fired")
	}
}

func TestLiveStepRoundIncrements(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	if err := l.StepRound(); err != nil {
		t.Fatalf("StepRound: %v", err)
	}
	if l.Round() != 1 {
		t.Fatalf("round %d, want 1", l.Round())
	}
	// RunRounds after manual steps continues from the current round.
	if err := l.RunRounds(3); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if l.Round() != 4 {
		t.Fatalf("round %d, want 4", l.Round())
	}
	if err := l.RunRounds(0); err != nil {
		t.Fatalf("RunRounds(0): %v", err)
	}
}

func TestLiveSetNetwork(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	if err := l.Subscribe(1, topic); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Flight mode: items queue.
	off := network.Matrix{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}}
	if err := l.SetNetwork(1, off, network.StateOff); err != nil {
		t.Fatalf("SetNetwork: %v", err)
	}
	l.Publish(topic, audioItem(1))
	if err := l.RunRounds(3); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	d, err := l.Device(1)
	if err != nil {
		t.Fatalf("Device: %v", err)
	}
	if d.QueueLen() != 1 {
		t.Fatalf("queue %d while offline, want 1", d.QueueLen())
	}
	// Back online: drains.
	if err := l.SetNetwork(1, network.AlwaysCellMatrix(), network.StateCell); err != nil {
		t.Fatalf("SetNetwork: %v", err)
	}
	if err := l.RunRounds(3); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if d.QueueLen() != 0 {
		t.Fatalf("queue %d after reconnect, want 0", d.QueueLen())
	}
	if err := l.SetNetwork(42, off, network.StateOff); err == nil {
		t.Fatal("SetNetwork accepted unknown user")
	}

	// A user that sat parked for several rounds is caught up on its old
	// model before the swap, so it ends exactly where a device that was
	// stepped every round does.
	var states [2]sched.DeviceState
	for i, fullScan := range []bool{true, false} {
		l := newTestLive(t)
		l.eng.fullScan = fullScan
		paper := network.PaperMatrix()
		if err := l.AddUser(UserConfig{User: 2, Strategy: StrategyFIFO, WeeklyBudgetBytes: 50 << 20, NetworkMatrix: &paper}); err != nil {
			t.Fatalf("AddUser: %v", err)
		}
		if err := l.Subscribe(2, topic); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		if err := l.RunRounds(4); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		if behind := l.Round() - l.eng.users[2].dev.NextRound(); !fullScan && behind < 3 {
			t.Fatalf("idle baseline device is %d rounds behind the clock, want parked for >= 3", behind)
		}
		if err := l.SetNetwork(2, network.AlwaysCellMatrix(), network.StateCell); err != nil {
			t.Fatalf("SetNetwork: %v", err)
		}
		d, err := l.Device(2)
		if err != nil {
			t.Fatalf("Device: %v", err)
		}
		if d.NextRound() != l.Round() {
			t.Fatalf("Device returned a device at round %d, clock at %d", d.NextRound(), l.Round())
		}
		l.Publish(topic, audioItem(2))
		if err := l.RunRounds(3); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		if d, err = l.Device(2); err != nil {
			t.Fatalf("Device: %v", err)
		}
		states[i] = d.ExportState()
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Fatalf("parked device ended at %+v, stepped-every-round device at %+v", states[1], states[0])
	}
}

// TestLiveDeliveryOrderDeterministic: OnDelivery sees every delivery —
// the real item and level, not a per-round summary — ordered by round
// and, within a round, by ascending user, the same in every run.
func TestLiveDeliveryOrderDeterministic(t *testing.T) {
	run := func() []notif.Delivery {
		var seen []notif.Delivery
		l, err := NewLive(LiveConfig{Seed: 3, OnDelivery: func(d notif.Delivery) { seen = append(seen, d) }})
		if err != nil {
			t.Fatalf("NewLive: %v", err)
		}
		topics := []pubsub.TopicID{
			{Kind: notif.TopicFriendFeed, Entity: 1},
			{Kind: notif.TopicArtistPage, Entity: 2},
		}
		for u := notif.UserID(1); u <= 50; u++ {
			addTestUser(t, l, u)
			if err := l.SubscribeCadence(u, topics[u%2], int(u%2)+1); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
		}
		for r := 0; r < 6; r++ {
			if r < 4 {
				l.Publish(topics[0], audioItem(int64(10+r)))
				l.Publish(topics[1], audioItem(int64(20+r)))
			}
			if err := l.StepRound(); err != nil {
				t.Fatalf("StepRound: %v", err)
			}
		}
		return seen
	}
	first, second := run(), run()
	if len(first) != 50*4 {
		t.Fatalf("observed %d deliveries, want every one of the %d", len(first), 50*4)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two identical runs observed different delivery sequences")
	}
	for i, d := range first {
		if d.ItemID == 0 || d.Level == 0 {
			t.Fatalf("delivery %d carries no item or level: %+v", i, d)
		}
		if i > 0 {
			prev := first[i-1]
			if d.DeliveredRound < prev.DeliveredRound || (d.DeliveredRound == prev.DeliveredRound && d.Recipient < prev.Recipient) {
				t.Fatalf("delivery %d (round %d, user %d) follows (round %d, user %d)", i, d.DeliveredRound, d.Recipient, prev.DeliveredRound, prev.Recipient)
			}
		}
	}
}

func TestLiveDeviceAccessor(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	if _, err := l.Device(1); err != nil {
		t.Fatalf("Device(1): %v", err)
	}
	if _, err := l.Device(9); err == nil {
		t.Fatal("Device(9) succeeded for unknown user")
	}
}

func TestLiveBaselineStrategies(t *testing.T) {
	l := newTestLive(t)
	for _, cfg := range []UserConfig{
		{User: 1, Strategy: StrategyFIFO, FixedLevel: 2, WeeklyBudgetBytes: 50 << 20, NetworkMatrix: alwaysCell()},
		{User: 2, Strategy: StrategyUtil, FixedLevel: 3, WeeklyBudgetBytes: 50 << 20, NetworkMatrix: alwaysCell()},
	} {
		if err := l.AddUser(cfg); err != nil {
			t.Fatalf("AddUser(%d): %v", cfg.User, err)
		}
	}
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 2}
	for _, u := range []notif.UserID{1, 2} {
		if err := l.Subscribe(u, topic); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	l.Publish(topic, audioItem(5))
	if err := l.RunRounds(6); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	rep := l.Collector().Aggregate()
	if rep.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", rep.Delivered)
	}
	// Fixed levels: FIFO user at level 2, UTIL user at level 3.
	if rep.LevelCounts[2] != 1 || rep.LevelCounts[3] != 1 {
		t.Fatalf("level counts %v, want one L2 and one L3", rep.LevelCounts)
	}
}
