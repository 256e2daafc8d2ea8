package sched

import (
	"testing"
	"time"

	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/sim"
)

type deviceFixture struct {
	device    *Device
	collector *metrics.Collector
}

func newFixture(t *testing.T, strategy Strategy, opts ...func(*DeviceConfig)) *deviceFixture {
	t.Helper()
	net, err := network.NewModelSeeded(network.AlwaysCellMatrix(), network.StateCell, sim.StreamSeed(1, sim.StreamNetwork))
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	bat, err := energy.NewBatterySeeded(energy.BatteryConfig{}, sim.StreamSeed(1, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	col := metrics.NewCollector()
	cfg := DeviceConfig{
		User:              7,
		Strategy:          strategy,
		WeeklyBudgetBytes: 20 << 20, // 20 MB/week
		Epoch:             time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		Network:           net,
		Capacity:          network.DefaultCapacity(),
		Battery:           bat,
		Transfer:          energy.DefaultTransferModel(),
		Collector:         col,
	}
	if _, ok := strategy.(*RichNote); ok {
		cfg.Controller = newController(t)
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return &deviceFixture{device: d, collector: col}
}

func TestNewDeviceValidation(t *testing.T) {
	fx := newFixture(t, &RichNote{}) // establishes a valid base config
	base := fx.device.cfg

	cases := []struct {
		name   string
		mutate func(*DeviceConfig)
	}{
		{"nil strategy", func(c *DeviceConfig) { c.Strategy = nil }},
		{"nil network", func(c *DeviceConfig) { c.Network = nil }},
		{"nil battery", func(c *DeviceConfig) { c.Battery = nil }},
		{"nil collector", func(c *DeviceConfig) { c.Collector = nil }},
		{"zero budget", func(c *DeviceConfig) { c.WeeklyBudgetBytes = 0 }},
		{"richnote without controller", func(c *DeviceConfig) { c.Controller = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewDevice(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestEnqueueValidatesItems(t *testing.T) {
	fx := newFixture(t, &RichNote{})
	bad := Queued{Rich: notif.RichItem{Item: notif.Item{ID: 1}}} // no presentations
	if err := fx.device.Enqueue([]Queued{bad}); err == nil {
		t.Fatal("malformed item accepted")
	}
}

func TestBudgetAccrualAndRollover(t *testing.T) {
	fx := newFixture(t, &RichNote{})
	d := fx.device
	// No items: budget accrues theta per round and rolls over.
	for round := 0; round < 10; round++ {
		if _, err := d.RunRound(round); err != nil {
			t.Fatalf("RunRound: %v", err)
		}
	}
	wantTheta := float64(20<<20) / 168
	if got := d.Budget(); got < 9.9*wantTheta || got > 10.1*wantTheta {
		t.Fatalf("budget after 10 idle rounds = %f, want ~%f", got, 10*wantTheta)
	}
}

func TestDeviceDeliversAndSettlesQueue(t *testing.T) {
	fx := newFixture(t, &RichNote{})
	d := fx.device
	items := []Queued{
		{Rich: makeRich(t, 1, 0.9), Clicked: true, ClickRound: 5},
		{Rich: makeRich(t, 2, 0.4)},
	}
	if err := d.Enqueue(items); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if d.QueueLen() != 2 {
		t.Fatalf("queue %d, want 2", d.QueueLen())
	}
	var delivered int
	for round := 0; round < 20 && d.QueueLen() > 0; round++ {
		res, err := d.RunRound(round)
		if err != nil {
			t.Fatalf("RunRound: %v", err)
		}
		delivered += res.Delivered
	}
	if d.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d left", d.QueueLen())
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	rep := fx.collector.Aggregate()
	if rep.Delivered != 2 || rep.Arrived != 2 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Recall() != 1 {
		t.Fatalf("recall %f, want 1 (the clicked item was delivered)", rep.Recall())
	}
	if rep.EnergyJ <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestDeviceRespectsDataPlanBudget(t *testing.T) {
	// Tiny weekly budget: only metadata presentations can ever be afforded
	// by the baselines' fixed rich level, so UTIL delivers nothing early.
	u, err := NewUtil(6)
	if err != nil {
		t.Fatalf("NewUtil: %v", err)
	}
	fx := newFixture(t, u, func(c *DeviceConfig) { c.WeeklyBudgetBytes = 1 << 20 }) // 1 MB/week
	d := fx.device
	if err := d.Enqueue([]Queued{{Rich: makeRich(t, 1, 0.9)}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	// Level 6 costs 800,200 bytes; theta is ~6.2 KB/round, so ~128 rounds
	// must pass before the first delivery.
	deliveredAt := -1
	for round := 0; round < 168; round++ {
		res, err := d.RunRound(round)
		if err != nil {
			t.Fatalf("RunRound: %v", err)
		}
		if res.Delivered > 0 {
			deliveredAt = round
			break
		}
	}
	if deliveredAt < 100 {
		t.Fatalf("level-6 delivery at round %d, want >= 100 (budget accrual)", deliveredAt)
	}
}

func TestDeviceOfflineNeverDelivers(t *testing.T) {
	offMatrix := network.Matrix{
		{1, 0, 0},
		{1, 0, 0},
		{1, 0, 0},
	}
	net, err := network.NewModelSeeded(offMatrix, network.StateOff, sim.StreamSeed(2, sim.StreamNetwork))
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	fx := newFixture(t, &RichNote{}, func(c *DeviceConfig) { c.Network = net })
	d := fx.device
	if err := d.Enqueue([]Queued{{Rich: makeRich(t, 1, 0.9)}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	for round := 0; round < 24; round++ {
		res, err := d.RunRound(round)
		if err != nil {
			t.Fatalf("RunRound: %v", err)
		}
		if res.Delivered != 0 {
			t.Fatal("delivered while offline")
		}
	}
	if d.QueueLen() != 1 {
		t.Fatal("queue mutated while offline")
	}
}

func TestDeviceStopsWhenBatteryDepleted(t *testing.T) {
	bat, err := energy.NewBatterySeeded(energy.BatteryConfig{
		CapacityJ:    100,
		InitialLevel: 0.02, // 2 J available: below one transfer
		DrainPerHour: 0.001,
		// Recharge window placed where rounds never land.
		RechargeStartHour: 3, RechargeEndHour: 4,
	}, sim.StreamSeed(3, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	fx := newFixture(t, &RichNote{}, func(c *DeviceConfig) {
		c.Battery = bat
		c.Epoch = time.Date(2015, 1, 1, 8, 0, 0, 0, time.UTC)
	})
	d := fx.device
	if err := d.Enqueue([]Queued{{Rich: makeRich(t, 1, 0.9)}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	res, err := d.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.Delivered != 0 {
		t.Fatal("delivered with a depleted battery")
	}
}

// planAll selects the given level for every queue entry, ignoring every
// budget in the context — a hostile strategy for exercising deliverRound's
// misfit guards.
type planAll struct{ level int }

func (p planAll) Name() string { return "plan-all" }

func (p planAll) Plan(queue []Queued, ctx *PlanContext) []Selection {
	sels := make([]Selection, len(queue))
	for i := range queue {
		sels[i] = Selection{Index: i, Level: p.level}
	}
	return sels
}

// TestDepletedBatteryChargesNoOverhead pins the lazy-overhead contract: a
// battery that cannot afford the radio ramp plus the first transfer spends
// nothing at all — the old code drained the whole remaining charge into a
// partial batch overhead and recorded energy for a round that delivered
// nothing.
func TestDepletedBatteryChargesNoOverhead(t *testing.T) {
	// Two identical batteries on identical RNG streams: ref receives only
	// the round's Tick, so any extra drop on bat is a Spend.
	cfg := energy.BatteryConfig{
		CapacityJ:         100,
		InitialLevel:      0.02, // 2 J: below the cell batch overhead alone
		RechargeStartHour: 3, RechargeEndHour: 4,
	}
	bat, err := energy.NewBatterySeeded(cfg, sim.StreamSeed(3, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	ref, err := energy.NewBatterySeeded(cfg, sim.StreamSeed(3, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	fx := newFixture(t, planAll{level: 1}, func(c *DeviceConfig) {
		c.Battery = bat
		c.Epoch = time.Date(2015, 1, 1, 8, 0, 0, 0, time.UTC)
	})
	d := fx.device
	if err := d.Enqueue([]Queued{{Rich: makeRich(t, 1, 0.9)}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	res, err := d.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.Delivered != 0 {
		t.Fatal("delivered with a depleted battery")
	}
	if res.EnergyJ != 0 {
		t.Fatalf("round energy %f, want 0 (no delivery, no overhead)", res.EnergyJ)
	}
	if rep := fx.collector.Aggregate(); rep.EnergyJ != 0 {
		t.Fatalf("collector energy %f, want 0", rep.EnergyJ)
	}
	ref.Tick(8)
	if got := bat.Level(); got != ref.Level() {
		t.Fatalf("battery level %f, want %f (Tick only, no spend)", got, ref.Level())
	}
}

// TestMisfitSelectionsChargeNoOverhead pins the other half of the lazy
// overhead: a round whose planned selections all misfit the data plan never
// powers the radio, so no overhead is spent or recorded.
func TestMisfitSelectionsChargeNoOverhead(t *testing.T) {
	cfg := energy.BatteryConfig{
		CapacityJ:         1000,
		InitialLevel:      1,
		RechargeStartHour: 3, RechargeEndHour: 4,
	}
	bat, err := energy.NewBatterySeeded(cfg, sim.StreamSeed(3, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	ref, err := energy.NewBatterySeeded(cfg, sim.StreamSeed(3, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	// Level 6 costs ~800 KB; one round of a 1 MB/week plan accrues ~6 KB, so
	// the selection always misfits the data-plan check.
	fx := newFixture(t, planAll{level: 6}, func(c *DeviceConfig) {
		c.Battery = bat
		c.WeeklyBudgetBytes = 1 << 20
		c.Epoch = time.Date(2015, 1, 1, 8, 0, 0, 0, time.UTC)
	})
	d := fx.device
	if err := d.Enqueue([]Queued{{Rich: makeRich(t, 1, 0.9)}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	res, err := d.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.Planned == 0 {
		t.Fatal("strategy planned nothing; the test needs a misfitting selection")
	}
	if res.Delivered != 0 {
		t.Fatal("delivered a selection that exceeds the data plan")
	}
	if res.EnergyJ != 0 {
		t.Fatalf("round energy %f, want 0 (all selections misfit)", res.EnergyJ)
	}
	ref.Tick(8)
	if got := bat.Level(); got != ref.Level() {
		t.Fatalf("battery level %f, want %f (Tick only, no spend)", got, ref.Level())
	}
}

func TestWifiDoesNotBillDataPlan(t *testing.T) {
	wifiMatrix := network.Matrix{
		{0, 0, 1},
		{0, 0, 1},
		{0, 0, 1},
	}
	net, err := network.NewModelSeeded(wifiMatrix, network.StateWifi, sim.StreamSeed(4, sim.StreamNetwork))
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	fx := newFixture(t, &RichNote{}, func(c *DeviceConfig) {
		c.Network = net
		c.WeeklyBudgetBytes = 1 << 20 // tiny plan
	})
	d := fx.device
	if err := d.Enqueue([]Queued{{Rich: makeRich(t, 1, 0.9)}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	budgetBefore := d.Budget()
	res, err := d.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.Delivered != 1 {
		t.Fatalf("wifi delivery count %d, want 1", res.Delivered)
	}
	wantTheta := float64(1<<20) / 168
	if got := d.Budget(); got < budgetBefore+wantTheta-1 || got > budgetBefore+wantTheta+1 {
		t.Fatalf("wifi delivery changed data plan budget: %f -> %f", budgetBefore, got)
	}
	// On abundant WiFi the scheduler picks a rich presentation even though
	// the cellular plan is tiny — the Fig. 5(c) effect.
	rep := fx.collector.Aggregate()
	foundRich := false
	for lvl := range rep.LevelCounts {
		if lvl >= 4 {
			foundRich = true
		}
	}
	if !foundRich {
		t.Fatalf("wifi delivery used levels %v, want a rich level (>= 4)", rep.LevelCounts)
	}
}

func TestRoundResultQueueAfter(t *testing.T) {
	fx := newFixture(t, &RichNote{})
	d := fx.device
	if err := d.Enqueue([]Queued{{Rich: makeRich(t, 1, 0.9)}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	res, err := d.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.QueueAfter != d.QueueLen() {
		t.Fatalf("QueueAfter %d != QueueLen %d", res.QueueAfter, d.QueueLen())
	}
}

// offlineModel returns a network process pinned to OFF.
func offlineModel(t *testing.T) *network.Model {
	t.Helper()
	m := network.Matrix{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}}
	model, err := network.NewModelSeeded(m, network.StateOff, sim.StreamSeed(9, sim.StreamNetwork))
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	return model
}

func TestOnDeliveryHook(t *testing.T) {
	var observed []notif.Delivery
	fx := newFixture(t, &RichNote{}, func(c *DeviceConfig) {
		c.OnDelivery = func(d notif.Delivery) { observed = append(observed, d) }
	})
	if _, err := fx.device.cfg.Controller.Replenish(30); err != nil {
		t.Fatalf("Replenish: %v", err)
	}
	if err := fx.device.Enqueue(makeQueue(t, 0.9)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	res, err := fx.device.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.Delivered == 0 {
		t.Fatal("expected a delivery with ample budget")
	}
	if len(observed) != res.Delivered {
		t.Fatalf("hook observed %d deliveries, round delivered %d", len(observed), res.Delivered)
	}
	if observed[0].Recipient != fx.device.User() || observed[0].Level < 1 {
		t.Fatalf("hook delivery %+v malformed", observed[0])
	}
	rep := fx.collector.Aggregate()
	if rep.Delivered != len(observed) {
		t.Fatalf("collector recorded %d, hook %d — hook must mirror the collector", rep.Delivered, len(observed))
	}
}

func TestControllerStats(t *testing.T) {
	fx := newFixture(t, &RichNote{})
	if _, ok := fx.device.ControllerStats(); !ok {
		t.Fatal("RichNote device must expose controller stats")
	}
	if _, err := fx.device.RunRound(0); err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	st, _ := fx.device.ControllerStats()
	if st.Rounds != 1 {
		t.Fatalf("controller rounds = %d, want 1", st.Rounds)
	}
	fifo, err := NewFIFO(2)
	if err != nil {
		t.Fatalf("NewFIFO: %v", err)
	}
	base := newFixture(t, fifo)
	if _, ok := base.device.ControllerStats(); ok {
		t.Fatal("baseline device must not expose controller stats")
	}
}
