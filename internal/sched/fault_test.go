package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/sim"
)

// faultyFixture builds a RichNote device whose every dependency is seeded
// from base, with the given fault model attached. Identical bases produce
// identical devices, which the equivalence tests below rely on.
func faultyFixture(t *testing.T, base int64, matrix network.Matrix, start network.State,
	faults *network.FaultModel, opts ...func(*DeviceConfig)) *deviceFixture {
	t.Helper()
	net, err := network.NewModelSeeded(matrix, start, sim.StreamSeed(base, sim.StreamNetwork))
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	bat, err := energy.NewBatterySeeded(energy.BatteryConfig{}, sim.StreamSeed(base, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	col := metrics.NewCollector()
	cfg := DeviceConfig{
		User:              7,
		Strategy:          &RichNote{},
		Controller:        newController(t),
		WeeklyBudgetBytes: 20 << 20,
		Epoch:             time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		Network:           net,
		Capacity:          network.DefaultCapacity(),
		Battery:           bat,
		Transfer:          energy.DefaultTransferModel(),
		Collector:         col,
		Faults:            faults,
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

// runEquivalence drives a fixture through a fixed arrival schedule and
// returns every round result and delivery, for bitwise comparison.
func runEquivalence(t *testing.T, fx *deviceFixture) ([]RoundResult, []notif.Delivery) {
	t.Helper()
	var deliveries []notif.Delivery
	fx.device.cfg.OnDelivery = func(d notif.Delivery) { deliveries = append(deliveries, d) }
	var results []RoundResult
	for round := 0; round < 80; round++ {
		if round%7 == 0 {
			batch := []Queued{
				{Rich: makeRich(t, notif.ItemID(round*2+1), 0.9), Clicked: true, ClickRound: round + 3},
				{Rich: makeRich(t, notif.ItemID(round*2+2), 0.3)},
			}
			if err := fx.device.Enqueue(batch); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
		}
		res, err := fx.device.RunRound(round)
		if err != nil {
			t.Fatalf("RunRound: %v", err)
		}
		results = append(results, res)
	}
	return results, deliveries
}

// TestZeroFaultEquivalence pins the tentpole's compatibility contract: a
// device with no fault model, a device with an all-zero fault config, and a
// device whose faults only cover a state it never visits must produce
// bit-identical round results, deliveries, budgets and battery levels.
func TestZeroFaultEquivalence(t *testing.T) {
	wifiOnly := network.Matrix{{0, 0, 1}, {0, 0, 1}, {0, 0, 1}}
	zeroModel, err := network.NewFaultModelSeeded(network.FaultConfig{}, 99)
	if err != nil {
		t.Fatalf("NewFaultModelSeeded: %v", err)
	}
	cellOnlyFaults, err := network.NewFaultModelSeeded(network.FaultConfig{CellLoss: 0.9, CellDisconnect: 0.1}, 99)
	if err != nil {
		t.Fatalf("NewFaultModelSeeded: %v", err)
	}
	cases := []struct {
		name   string
		matrix network.Matrix
		start  network.State
		faults *network.FaultModel
	}{
		{"zero-config model on mixed network", network.PaperMatrix(), network.StateCell, zeroModel},
		{"cell faults on wifi-only network", wifiOnly, network.StateWifi, cellOnlyFaults},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := faultyFixture(t, 11, tc.matrix, tc.start, nil)
			alt := faultyFixture(t, 11, tc.matrix, tc.start, tc.faults)
			refRes, refDel := runEquivalence(t, ref)
			altRes, altDel := runEquivalence(t, alt)
			if !reflect.DeepEqual(refRes, altRes) {
				t.Errorf("round results diverged:\n nil faults: %+v\nwith faults: %+v", refRes, altRes)
			}
			if !reflect.DeepEqual(refDel, altDel) {
				t.Errorf("deliveries diverged:\n nil faults: %+v\nwith faults: %+v", refDel, altDel)
			}
			if a, b := ref.device.Budget(), alt.device.Budget(); a != b {
				t.Errorf("budgets diverged: %v != %v", a, b)
			}
			if a, b := ref.device.cfg.Battery.Level(), alt.device.cfg.Battery.Level(); a != b {
				t.Errorf("battery levels diverged: %v != %v", a, b)
			}
			if deb, ref := alt.device.BudgetLedger(); ref != 0 {
				t.Errorf("fault-free run refunded %f of %f debited", ref, deb)
			}
		})
	}
}

// TestEnqueueAllOrNothing is the regression test for the partial-enqueue
// bug: a batch with an invalid item in the middle must leave no trace — no
// queued prefix, no collector arrivals, no controller backlog.
func TestEnqueueAllOrNothing(t *testing.T) {
	fx := newFixture(t, &RichNote{})
	d := fx.device
	batch := []Queued{
		{Rich: makeRich(t, 1, 0.9)},
		{Rich: notif.RichItem{Item: notif.Item{ID: 2}}}, // no presentations: invalid
		{Rich: makeRich(t, 3, 0.5)},
	}
	if err := d.Enqueue(batch); err == nil {
		t.Fatal("batch with an invalid item accepted")
	}
	if d.QueueLen() != 0 {
		t.Errorf("queue holds %d items after failed enqueue, want 0", d.QueueLen())
	}
	if rep := fx.collector.Aggregate(); rep.Arrived != 0 {
		t.Errorf("collector recorded %d arrivals after failed enqueue, want 0", rep.Arrived)
	}
	if q := d.cfg.Controller.Q(); q != 0 {
		t.Errorf("controller backlog %f after failed enqueue, want 0", q)
	}
	// The same batch without the poison pill must still work.
	if err := d.Enqueue([]Queued{batch[0], batch[2]}); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if d.QueueLen() != 2 {
		t.Fatalf("queue holds %d items, want 2", d.QueueLen())
	}
}

// planList returns a canned selection list regardless of queue or budget —
// for driving deliverRound into specific corners.
type planList struct{ sels []Selection }

func (p planList) Name() string                                      { return "plan-list" }
func (p planList) Plan(queue []Queued, ctx *PlanContext) []Selection { return p.sels }

// TestBatteryDepletionBreakSkipsAffordableRemainder pins a pre-existing
// deliverRound behavior: when a selection's energy need exceeds the battery,
// the round breaks — it does not scan ahead for cheaper selections that the
// remaining charge could still afford. Those retry next round.
func TestBatteryDepletionBreakSkipsAffordableRemainder(t *testing.T) {
	// 15 J available: enough for the batch overhead (9.75 J) plus a level-1
	// transfer (~0.005 J), far short of overhead plus level 6 (~20 J).
	bat, err := energy.NewBatterySeeded(energy.BatteryConfig{
		CapacityJ:         100,
		InitialLevel:      0.15,
		RechargeStartHour: 3, RechargeEndHour: 4,
	}, sim.StreamSeed(3, sim.StreamEnergy))
	if err != nil {
		t.Fatalf("NewBatterySeeded: %v", err)
	}
	strategy := planList{sels: []Selection{{Index: 0, Level: 6}, {Index: 1, Level: 1}}}
	fx := newFixture(t, strategy, func(c *DeviceConfig) {
		c.Battery = bat
		c.WeeklyBudgetBytes = 1 << 30 // budget never the binding constraint
		c.Epoch = time.Date(2015, 1, 1, 8, 0, 0, 0, time.UTC)
	})
	d := fx.device
	if err := d.Enqueue(makeQueue(t, 0.9, 0.8)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	res, err := d.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.Planned != 2 {
		t.Fatalf("planned %d selections, want 2", res.Planned)
	}
	if res.Delivered != 0 {
		t.Fatalf("delivered %d, want 0: the depletion break must stop the round", res.Delivered)
	}
	if res.EnergyJ != 0 {
		t.Errorf("round energy %f, want 0 (radio never powered)", res.EnergyJ)
	}
	if d.QueueLen() != 2 {
		t.Errorf("queue %d, want 2: both items retry next round", d.QueueLen())
	}
}

// TestMaxDeliveriesWithDropUndelivered pins the interaction of the two
// queue disciplines: the per-round cap stops after one delivery, and the
// digest discipline then drops the undelivered remainder instead of
// retrying it.
func TestMaxDeliveriesWithDropUndelivered(t *testing.T) {
	u, err := NewUtil(1)
	if err != nil {
		t.Fatalf("NewUtil: %v", err)
	}
	fx := newFixture(t, u, func(c *DeviceConfig) {
		c.MaxDeliveriesPerRound = 1
		c.DropUndelivered = true
		c.WeeklyBudgetBytes = 1 << 30
	})
	d := fx.device
	if err := d.Enqueue(makeQueue(t, 0.9, 0.8, 0.7)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	res, err := d.RunRound(0)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered %d, want exactly 1 (MaxDeliveriesPerRound)", res.Delivered)
	}
	if res.QueueAfter != 0 || d.QueueLen() != 0 {
		t.Fatalf("queue %d after digest round, want 0 (DropUndelivered)", d.QueueLen())
	}
}

// TestDegradationLadderAndBoundedDrop walks one item down the full retry
// ladder under a 100% cellular loss rate: each failed attempt lowers the
// level cap by one, the data plan is refunded in full every time, and after
// MaxAttempts the item leaves the queue as dropped.
func TestDegradationLadderAndBoundedDrop(t *testing.T) {
	faults, err := network.NewFaultModelSeeded(network.FaultConfig{CellLoss: 1}, 5)
	if err != nil {
		t.Fatalf("NewFaultModelSeeded: %v", err)
	}
	u, err := NewUtil(3)
	if err != nil {
		t.Fatalf("NewUtil: %v", err)
	}
	fx := faultyFixture(t, 21, network.AlwaysCellMatrix(), network.StateCell, faults,
		func(c *DeviceConfig) {
			c.Strategy = u
			c.Controller = nil
			c.WeeklyBudgetBytes = 1 << 30
			c.MaxAttempts = 3
			c.DegradeOnFailure = true
		})
	d := fx.device
	if err := d.Enqueue(makeQueue(t, 0.9)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	// Each failed attempt caps the ladder one level below the level just
	// tried: 3 → 2 → 1, then the third failure exhausts MaxAttempts.
	wantCapAfter := []int{2, 1} // LevelCap after rounds 0 and 1
	for round := 0; round < 3; round++ {
		res, err := d.RunRound(round)
		if err != nil {
			t.Fatalf("RunRound %d: %v", round, err)
		}
		if res.Failed != 1 || res.Delivered != 0 {
			t.Fatalf("round %d: failed %d delivered %d, want 1/0", round, res.Failed, res.Delivered)
		}
		if round < len(wantCapAfter) {
			if res.Dropped != 0 {
				t.Fatalf("round %d: dropped %d before MaxAttempts", round, res.Dropped)
			}
			if got := d.queue[0].MaxLevel(); got != wantCapAfter[round] {
				t.Fatalf("after round %d: plannable level %d, want %d", round, got, wantCapAfter[round])
			}
		} else if res.Dropped != 1 {
			t.Fatalf("round %d: dropped %d, want 1 (MaxAttempts exhausted)", round, res.Dropped)
		}
	}
	if d.QueueLen() != 0 {
		t.Fatalf("queue %d after MaxAttempts exhausted, want 0", d.QueueLen())
	}
	debited, refunded := d.BudgetLedger()
	if debited == 0 || debited != refunded {
		t.Errorf("ledger debited %f refunded %f: every failed attempt must refund in full", debited, refunded)
	}
	rep := fx.collector.Aggregate()
	if rep.TransferFailures != 3 || rep.Dropped != 1 || rep.Delivered != 0 {
		t.Errorf("report failures %d dropped %d delivered %d, want 3/1/0",
			rep.TransferFailures, rep.Dropped, rep.Delivered)
	}
}

// TestFaultPropertyInvariants is the tentpole's property test: thousands of
// randomized failure sequences (random fault probabilities, retry caps,
// degradation settings, arrival patterns and network walks), after every
// round of which the money-and-energy invariants must hold:
//
//   - the data-plan balance never goes negative and refunds never exceed
//     debits (no double-spend, no refund fabrication);
//   - the battery level stays within [0, 1];
//   - every arrival is accounted for: delivered, dropped or still queued;
//   - the Lyapunov backlog Q(t) tracks the queue's byte content and the
//     virtual energy queue P(t) never goes negative.
func TestFaultPropertyInvariants(t *testing.T) {
	trials := 10000
	if testing.Short() {
		trials = 500
	}
	matrices := []network.Matrix{
		network.PaperMatrix(),
		network.AlwaysCellMatrix(),
		network.CellOnlyMatrix(),
	}
	// Rich ladders are expensive to generate; build a palette once and vary
	// the content utility per arrival.
	palette := make([]notif.RichItem, 6)
	for i := range palette {
		palette[i] = makeRich(t, notif.ItemID(i+1), 0.5)
	}

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		cfg := network.FaultConfig{
			CellLoss:       rng.Float64() * 0.5,
			WifiLoss:       rng.Float64() * 0.3,
			CellDisconnect: rng.Float64() * 0.4,
			WifiDisconnect: rng.Float64() * 0.3,
		}
		faults, err := network.NewFaultModelSeeded(cfg, int64(trial)+1)
		if err != nil {
			t.Fatalf("trial %d: NewFaultModelSeeded: %v", trial, err)
		}
		maxAttempts := rng.Intn(5) // 0 = retry forever
		degrade := rng.Intn(2) == 0
		fx := faultyFixture(t, int64(trial), matrices[rng.Intn(len(matrices))], network.StateCell, faults,
			func(c *DeviceConfig) {
				c.MaxAttempts = maxAttempts
				c.DegradeOnFailure = degrade
			})
		d := fx.device

		arrived, delivered, dropped := 0, 0, 0
		for round := 0; round < 30; round++ {
			if rng.Float64() < 0.5 {
				n := 1 + rng.Intn(3)
				batch := make([]Queued, n)
				for i := range batch {
					rich := palette[rng.Intn(len(palette))]
					rich.Item.ID = notif.ItemID(arrived + i + 1000*trial)
					rich.ContentUtility = rng.Float64()
					batch[i] = Queued{Rich: rich, Clicked: rng.Intn(2) == 0, ClickRound: round + rng.Intn(5)}
				}
				if err := d.Enqueue(batch); err != nil {
					t.Fatalf("trial %d round %d: Enqueue: %v", trial, round, err)
				}
				arrived += n
			}
			res, err := d.RunRound(round)
			if err != nil {
				t.Fatalf("trial %d round %d: RunRound: %v", trial, round, err)
			}
			delivered += res.Delivered
			dropped += res.Dropped

			if bal := d.Budget(); bal < 0 {
				t.Fatalf("trial %d round %d: data budget negative: %f", trial, round, bal)
			}
			debited, refunded := d.BudgetLedger()
			if refunded > debited {
				t.Fatalf("trial %d round %d: refunded %f > debited %f", trial, round, refunded, debited)
			}
			if lvl := d.cfg.Battery.Level(); lvl < 0 || lvl > 1 {
				t.Fatalf("trial %d round %d: battery level %f outside [0,1]", trial, round, lvl)
			}
			if arrived != delivered+dropped+d.QueueLen() {
				t.Fatalf("trial %d round %d: conservation violated: arrived %d != delivered %d + dropped %d + queued %d",
					trial, round, arrived, delivered, dropped, d.QueueLen())
			}
			var queuedMB float64
			for qi := range d.queue {
				queuedMB += float64(d.queue[qi].Rich.TotalSize()) / bytesPerMB
			}
			if q := d.cfg.Controller.Q(); math.Abs(q-queuedMB) > 1e-6 {
				t.Fatalf("trial %d round %d: controller Q %f != queued backlog %f MB", trial, round, q, queuedMB)
			}
			if p := d.cfg.Controller.P(); p < 0 {
				t.Fatalf("trial %d round %d: virtual energy queue negative: %f", trial, round, p)
			}
		}
	}
}
