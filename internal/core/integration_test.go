package core

// Integration scenarios across the full stack: pub/sub -> enrichment ->
// scheduler -> device, including failure injection (battery collapse,
// network partition) and recovery.

import (
	"testing"
	"time"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/trace"
)

// TestIntegrationPartitionAndRecovery drives a device through a network
// partition: items queue while offline, nothing is lost, and the backlog
// drains after reconnection with queuing delays accounted.
func TestIntegrationPartitionAndRecovery(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	if err := l.Subscribe(1, topic); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	off := network.Matrix{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}}
	if err := l.SetNetwork(1, off, network.StateOff); err != nil {
		t.Fatalf("SetNetwork: %v", err)
	}
	// 12 offline rounds with 2 publications each.
	id := int64(1)
	for r := 0; r < 12; r++ {
		for i := 0; i < 2; i++ {
			l.Publish(topic, audioItem(id))
			id++
		}
		if err := l.StepRound(); err != nil {
			t.Fatalf("StepRound: %v", err)
		}
	}
	d, err := l.Device(1)
	if err != nil {
		t.Fatalf("Device: %v", err)
	}
	if d.QueueLen() != 24 {
		t.Fatalf("queue %d after partition, want 24", d.QueueLen())
	}
	if rep := l.Collector().Aggregate(); rep.Delivered != 0 {
		t.Fatalf("delivered %d during partition", rep.Delivered)
	}

	// Reconnect; backlog must drain and delays reflect the partition.
	if err := l.SetNetwork(1, network.AlwaysCellMatrix(), network.StateCell); err != nil {
		t.Fatalf("SetNetwork: %v", err)
	}
	if err := l.RunRounds(12); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	rep := l.Collector().Aggregate()
	if rep.Delivered != 24 {
		t.Fatalf("delivered %d after recovery, want 24", rep.Delivered)
	}
	if rep.AvgDelayRounds() <= 1 {
		t.Fatalf("avg delay %.2f rounds, want > 1 (partition must show up)", rep.AvgDelayRounds())
	}
	if rep.DelayP95Rounds < rep.DelayP50Rounds {
		t.Fatalf("delay percentiles inverted: p50 %.1f p95 %.1f", rep.DelayP50Rounds, rep.DelayP95Rounds)
	}
}

// TestIntegrationBudgetExhaustionDegradesGracefully verifies the headline
// adaptive behaviour end to end: when the plan is minuscule, RichNote
// falls back to metadata-only but keeps delivering.
func TestIntegrationBudgetExhaustionDegradesGracefully(t *testing.T) {
	l := newTestLive(t)
	if err := l.AddUser(UserConfig{
		User:              1,
		WeeklyBudgetBytes: 256 << 10, // 256 KB/week
		NetworkMatrix:     alwaysCell(),
	}); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 2}
	if err := l.Subscribe(1, topic); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := int64(0); i < 30; i++ {
		l.Publish(topic, audioItem(i))
	}
	if err := l.RunRounds(24); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	rep := l.Collector().Aggregate()
	if rep.Delivered != 30 {
		t.Fatalf("delivered %d of 30 on a tiny budget, want all (via metadata)", rep.Delivered)
	}
	if rep.LevelCounts[1] < 25 {
		t.Fatalf("metadata-only deliveries %d, want the vast majority", rep.LevelCounts[1])
	}
	if rep.DeliveredBytes > 256<<10 {
		t.Fatalf("delivered %d bytes, exceeds the weekly plan", rep.DeliveredBytes)
	}
}

// TestIntegrationPipelineMatchesCollector cross-checks the pipeline's
// aggregate report against independently recomputed trace ground truth.
func TestIntegrationPipelineMatchesCollector(t *testing.T) {
	p, err := BuildPipeline(PipelineConfig{
		Trace:  trace.Config{Users: 30, Rounds: 72, Seed: 13},
		Scorer: ScorerOracle,
	})
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	res, err := p.Run(RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 50 << 20})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := trace.ComputeStats(p.Trace)
	if res.Report.Arrived != st.Records {
		t.Fatalf("arrived %d != trace records %d", res.Report.Arrived, st.Records)
	}
	if res.Report.ClickedTotal != st.Clicked {
		t.Fatalf("clicked %d != trace clicked %d", res.Report.ClickedTotal, st.Clicked)
	}
	// RichNote delivers everything here, so recall must be exactly 1.
	if res.Report.Recall() != 1 {
		t.Fatalf("recall %.3f with full delivery, want 1", res.Report.Recall())
	}
	// Delivered utility cannot exceed the sum of max-level utilities.
	var maxUtility float64
	for _, ut := range p.Trace.Users {
		for _, n := range ut.Notifications {
			maxUtility += n.LatentP // Up(max) = 1
		}
	}
	if res.Report.TrueUtilitySum > maxUtility+1e-6 {
		t.Fatalf("true utility %.1f exceeds theoretical cap %.1f", res.Report.TrueUtilitySum, maxUtility)
	}
}

// TestIntegrationRoundCadence verifies the Section II per-feed round
// tuning through the Live API: a slow-cadence artist feed accumulates and
// arrives in batches.
func TestIntegrationRoundCadence(t *testing.T) {
	l := newTestLive(t)
	addTestUser(t, l, 1)
	fast := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	slow := pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: 2}
	if err := l.SubscribeCadence(1, fast, 1); err != nil {
		t.Fatalf("SubscribeCadence fast: %v", err)
	}
	if err := l.SubscribeCadence(1, slow, 6); err != nil {
		t.Fatalf("SubscribeCadence slow: %v", err)
	}
	if err := l.SubscribeCadence(1, slow, 0); err == nil {
		t.Fatal("cadence 0 accepted")
	}
	id := int64(1)
	for r := 0; r < 12; r++ {
		l.Publish(fast, audioItem(id))
		id++
		l.Publish(slow, audioItem(1000+id))
		if err := l.StepRound(); err != nil {
			t.Fatalf("StepRound: %v", err)
		}
	}
	rep := l.Collector().Aggregate()
	// Fast feed: all 12 arrive. Slow feed drains at rounds 0 and 6; the
	// publications of rounds 6..11 are still pending in the broker.
	if rep.Arrived != 12+7 {
		t.Fatalf("arrived %d, want 19 (12 fast + 7 slow drained)", rep.Arrived)
	}
}

// TestIntegrationHookObservesRounds verifies delivery observability
// through the OnDelivery hook with wall-clock timestamps.
func TestIntegrationHookObservesRounds(t *testing.T) {
	var stamps []time.Time
	l, err := NewLive(LiveConfig{
		Seed:       8,
		OnDelivery: func(d notif.Delivery) { stamps = append(stamps, d.DeliveredAt) },
	})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	addTestUser(t, l, 1)
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 3}
	if err := l.Subscribe(1, topic); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	l.Publish(topic, audioItem(1))
	if err := l.RunRounds(4); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if len(stamps) == 0 {
		t.Fatal("no delivery observed")
	}
	epoch := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, s := range stamps {
		if s.Before(epoch) || s.After(epoch.Add(5*time.Hour)) {
			t.Fatalf("delivery timestamp %s outside simulated window", s)
		}
	}
}
