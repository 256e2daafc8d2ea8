package lyapunov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	c, err := New(Config{V: 1000, Kappa: 3000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{V: 1000, Kappa: 3000}, true},
		{"zero V", Config{V: 0, Kappa: 3000}, false},
		{"negative kappa", Config{V: 1, Kappa: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestRestoreStateRefusesBadQueues: a snapshot or adopt frame carrying a
// negative, NaN or infinite queue must not restore, and must leave the
// controller as it was.
func TestRestoreStateRefusesBadQueues(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    State
	}{
		{"negative Q", State{Q: -1}},
		{"NaN Q", State{Q: math.NaN()}},
		{"+Inf Q", State{Q: math.Inf(1)}},
		{"negative P", State{P: -1}},
		{"NaN P", State{P: math.NaN()}},
		{"+Inf P", State{P: math.Inf(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestController(t)
			before := c.ExportState()
			if err := c.RestoreState(tc.s); err == nil {
				t.Fatalf("restored %+v", tc.s)
			}
			if got := c.ExportState(); got != before {
				t.Fatalf("refused restore changed the controller: %+v, want %+v", got, before)
			}
		})
	}
	c := newTestController(t)
	if err := c.RestoreState(State{Q: 5, P: 7}); err != nil {
		t.Fatalf("finite non-negative queues refused: %v", err)
	}
}

func TestQueuesFloorAtZero(t *testing.T) {
	c := newTestController(t)
	if err := c.OnArrive(100); err != nil {
		t.Fatalf("OnArrive: %v", err)
	}
	if err := c.OnDeliver(500, 50); err != nil {
		t.Fatalf("OnDeliver: %v", err)
	}
	if c.Q() != 0 {
		t.Fatalf("Q = %f, want 0 (floored)", c.Q())
	}
	if c.P() != 0 {
		t.Fatalf("P = %f, want 0 (floored)", c.P())
	}
}

func TestNegativeAmountsRejected(t *testing.T) {
	c := newTestController(t)
	if err := c.OnArrive(-1); err == nil {
		t.Error("OnArrive(-1) succeeded")
	}
	if err := c.OnDeliver(-1, 0); err == nil {
		t.Error("OnDeliver(-1, 0) succeeded")
	}
	if _, err := c.Replenish(-1); err == nil {
		t.Error("Replenish(-1) succeeded")
	}
}

func TestReplenishStopsAboveKappa(t *testing.T) {
	c := newTestController(t)
	// Fill up to kappa.
	credited := 0.0
	for i := 0; i < 10; i++ {
		got, err := c.Replenish(1000)
		if err != nil {
			t.Fatalf("Replenish: %v", err)
		}
		credited += got
	}
	// P exceeds kappa after the credit that crossed it; afterwards no more.
	if c.P() > c.Config().Kappa+1000 {
		t.Fatalf("P = %f grew unboundedly past kappa %f", c.P(), c.Config().Kappa)
	}
	got, err := c.Replenish(1000)
	if err != nil {
		t.Fatalf("Replenish: %v", err)
	}
	if got != 0 {
		t.Fatalf("Replenish above kappa credited %f, want 0", got)
	}
	if credited != 4000 {
		t.Fatalf("total credited %f, want 4000 (3 full + crossing credit)", credited)
	}
}

func TestAdjustedUtilityTerms(t *testing.T) {
	c := newTestController(t)
	// Empty queues: Ua = (0)·s + (0−κ)·ρ + V·U.
	ua := c.Adjusted(1000, 2, 0.5)
	want := (0-3000.0)*2 + 1000*0.5
	if math.Abs(ua-want) > 1e-9 {
		t.Fatalf("Adjusted = %f, want %f", ua, want)
	}
	// With backlog, the Q·s term appears.
	if err := c.OnArrive(10_000); err != nil {
		t.Fatalf("OnArrive: %v", err)
	}
	ua = c.Adjusted(1000, 2, 0.5)
	want = 10_000*1000 + (0-3000.0)*2 + 1000*0.5
	if math.Abs(ua-want) > 1e-6 {
		t.Fatalf("Adjusted with backlog = %f, want %f", ua, want)
	}
}

func TestEnergyTermPenalizesWhenBelowTarget(t *testing.T) {
	c := newTestController(t)
	// P = 0 < kappa: richer (more energy) presentations must score lower.
	cheap := c.Adjusted(100, 1, 0.5)
	rich := c.Adjusted(100, 10, 0.5)
	if rich >= cheap {
		t.Fatalf("energy-hungry choice scored %f >= %f with empty energy queue", rich, cheap)
	}
	// P above kappa: spending energy is rewarded.
	for i := 0; i < 5; i++ {
		if _, err := c.Replenish(1000); err != nil {
			t.Fatalf("Replenish: %v", err)
		}
	}
	if c.P() <= c.Config().Kappa {
		t.Fatalf("setup: P = %f not above kappa", c.P())
	}
	cheap = c.Adjusted(100, 1, 0.5)
	rich = c.Adjusted(100, 10, 0.5)
	if rich <= cheap {
		t.Fatalf("energy-hungry choice scored %f <= %f with surplus energy", rich, cheap)
	}
}

func TestLyapunovFunction(t *testing.T) {
	c := newTestController(t)
	// Empty: L = ½κ².
	want := 0.5 * 3000.0 * 3000.0
	if math.Abs(c.Lyapunov()-want) > 1e-9 {
		t.Fatalf("L = %f, want %f", c.Lyapunov(), want)
	}
	if err := c.OnArrive(100); err != nil {
		t.Fatalf("OnArrive: %v", err)
	}
	want += 0.5 * 100 * 100
	if math.Abs(c.Lyapunov()-want) > 1e-9 {
		t.Fatalf("L after arrival = %f, want %f", c.Lyapunov(), want)
	}
}

// The central stability claim: under arrivals bounded below the service
// capacity, the backlog Q(t) remains bounded (does not grow linearly).
func TestQueueStabilityUnderLoad(t *testing.T) {
	c := newTestController(t)
	rng := rand.New(rand.NewSource(1))
	const rounds = 2000
	const serviceCap = 1500.0 // bytes servable per round
	var lateAvg, earlyAvg float64
	for r := 0; r < rounds; r++ {
		// Arrivals average 1000 bytes/round, below capacity.
		if err := c.OnArrive(500 + rng.Float64()*1000); err != nil {
			t.Fatalf("OnArrive: %v", err)
		}
		// Serve up to capacity.
		serve := math.Min(c.Q(), serviceCap)
		if err := c.OnDeliver(serve, 10); err != nil {
			t.Fatalf("OnDeliver: %v", err)
		}
		if _, err := c.Replenish(15); err != nil {
			t.Fatalf("Replenish: %v", err)
		}
		c.EndRound()
		if r < rounds/4 {
			earlyAvg += c.Q()
		}
		if r >= 3*rounds/4 {
			lateAvg += c.Q()
		}
	}
	earlyAvg /= rounds / 4
	lateAvg /= rounds / 4
	// A stable queue's late-window average must not exceed a small multiple
	// of its early-window average.
	if lateAvg > 3*earlyAvg+2000 {
		t.Fatalf("queue appears unstable: early avg %f, late avg %f", earlyAvg, lateAvg)
	}
	st := c.Stats()
	if st.Rounds != rounds {
		t.Fatalf("Stats.Rounds = %d, want %d", st.Rounds, rounds)
	}
	if st.MaxQ < st.AvgQ {
		t.Fatalf("MaxQ %f below AvgQ %f", st.MaxQ, st.AvgQ)
	}
}

func TestStatsDrift(t *testing.T) {
	c := newTestController(t)
	// Constant queue growth gives positive average drift.
	for r := 0; r < 10; r++ {
		if err := c.OnArrive(100); err != nil {
			t.Fatalf("OnArrive: %v", err)
		}
		c.EndRound()
	}
	st := c.Stats()
	if st.AvgDrift <= 0 {
		t.Fatalf("AvgDrift = %f, want positive under pure growth", st.AvgDrift)
	}
}

func TestStatsEmpty(t *testing.T) {
	c := newTestController(t)
	st := c.Stats()
	if st.Rounds != 0 || st.AvgQ != 0 || st.AvgDrift != 0 {
		t.Fatalf("zero-round stats not zero: %+v", st)
	}
}

// Property: queues are never negative after any sequence of operations.
func TestQueuesNonNegativeProperty(t *testing.T) {
	type op struct {
		Kind   uint8
		Amount uint16
		Energy uint16
	}
	prop := func(ops []op) bool {
		c, err := New(Config{V: 1000, Kappa: 3000})
		if err != nil {
			return false
		}
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0:
				if err := c.OnArrive(float64(o.Amount)); err != nil {
					return false
				}
			case 1:
				if err := c.OnDeliver(float64(o.Amount), float64(o.Energy)); err != nil {
					return false
				}
			case 2:
				if _, err := c.Replenish(float64(o.Energy)); err != nil {
					return false
				}
			}
			if c.Q() < 0 || c.P() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: larger V always weighs utility more in the adjusted score.
func TestVMonotonicityProperty(t *testing.T) {
	prop := func(size, energy uint16, u8 uint8) bool {
		u := float64(u8) / 255.0
		c1, err1 := New(Config{V: 100, Kappa: 3000})
		c2, err2 := New(Config{V: 10_000, Kappa: 3000})
		if err1 != nil || err2 != nil {
			return false
		}
		a1 := c1.Adjusted(float64(size), float64(energy), u)
		a2 := c2.Adjusted(float64(size), float64(energy), u)
		return a2-a1 >= u*(10_000-100)-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAdd(t *testing.T) {
	var agg Stats
	agg.Add(Stats{Rounds: 5, AvgQ: 2, MaxQ: 4, AvgDrift: 0.5, FinalQ: 3, FinalP: 10, FinalLyap: 50})
	agg.Add(Stats{Rounds: 7, AvgQ: 1, MaxQ: 9, AvgDrift: -0.25, FinalQ: 2, FinalP: 5, FinalLyap: 20})
	if agg.Rounds != 7 {
		t.Fatalf("Rounds = %d, want max 7", agg.Rounds)
	}
	if agg.MaxQ != 9 {
		t.Fatalf("MaxQ = %f, want max 9", agg.MaxQ)
	}
	if agg.AvgQ != 3 || agg.AvgDrift != 0.25 || agg.FinalQ != 5 || agg.FinalP != 15 || agg.FinalLyap != 70 {
		t.Fatalf("sums wrong: %+v", agg)
	}
}
