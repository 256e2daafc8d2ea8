package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/sim"
)

func TestTransferJ(t *testing.T) {
	m := DefaultTransferModel()
	cell, err := m.TransferJ(1_000_000, network.StateCell)
	if err != nil {
		t.Fatalf("TransferJ cell: %v", err)
	}
	if math.Abs(cell-25) > 1e-9 { // 1000 KB x 0.025 J/KB
		t.Fatalf("cell transfer = %f J, want 25", cell)
	}
	wifi, err := m.TransferJ(1_000_000, network.StateWifi)
	if err != nil {
		t.Fatalf("TransferJ wifi: %v", err)
	}
	if wifi >= cell {
		t.Fatalf("wifi (%f J) not cheaper than cell (%f J)", wifi, cell)
	}
	if _, err := m.TransferJ(1000, network.StateOff); err == nil {
		t.Fatal("transfer while offline accepted")
	}
}

func TestBatchOverhead(t *testing.T) {
	m := DefaultTransferModel()
	if m.BatchOverheadJ(network.StateCell) <= m.BatchOverheadJ(network.StateWifi) {
		t.Fatal("cell batch overhead (ramp+tail) must exceed wifi association")
	}
	if m.BatchOverheadJ(network.StateOff) != 0 {
		t.Fatal("offline overhead must be zero")
	}
}

func newBattery(t *testing.T, cfg BatteryConfig) *Battery {
	t.Helper()
	b, err := NewBattery(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewBattery: %v", err)
	}
	return b
}

func TestNewBatteryValidation(t *testing.T) {
	if _, err := NewBattery(BatteryConfig{}, nil); err == nil {
		t.Error("nil rng accepted")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := NewBattery(BatteryConfig{InitialLevel: 1.5}, rng); err == nil {
		t.Error("level > 1 accepted")
	}
	if _, err := NewBattery(BatteryConfig{CapacityJ: -5}, rng); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestBatteryDefaults(t *testing.T) {
	b := newBattery(t, BatteryConfig{})
	if b.CapacityJ() != 37_000 {
		t.Fatalf("capacity %f, want default 37000", b.CapacityJ())
	}
	if b.Level() != 0.8 {
		t.Fatalf("level %f, want default 0.8", b.Level())
	}
}

func TestBatteryDrainsByDayChargesByNight(t *testing.T) {
	b := newBattery(t, BatteryConfig{InitialLevel: 0.7})
	day := b.Level()
	for h := 9; h < 18; h++ {
		b.Tick(h)
	}
	if b.Level() >= day {
		t.Fatalf("battery did not drain during the day: %f -> %f", day, b.Level())
	}
	night := b.Level()
	for _, h := range []int{23, 0, 1, 2, 3, 4, 5, 6} {
		b.Tick(h)
	}
	if b.Level() <= night {
		t.Fatalf("battery did not charge overnight: %f -> %f", night, b.Level())
	}
}

func TestBatterySpend(t *testing.T) {
	b := newBattery(t, BatteryConfig{CapacityJ: 1000, InitialLevel: 0.5})
	spent := b.Spend(100)
	if spent != 100 {
		t.Fatalf("spent %f, want 100", spent)
	}
	if math.Abs(b.Level()-0.4) > 1e-9 {
		t.Fatalf("level %f after spend, want 0.4", b.Level())
	}
	// Overdraw is bounded by remaining charge.
	spent = b.Spend(10_000)
	if math.Abs(spent-400) > 1e-9 {
		t.Fatalf("overdraw spent %f, want 400 (remaining)", spent)
	}
	if b.Level() != 0 {
		t.Fatalf("level %f after overdraw, want 0", b.Level())
	}
	if b.Spend(-5) != 0 {
		t.Fatal("negative spend drew energy")
	}
}

func TestReplenishRateScalesWithLevel(t *testing.T) {
	const kappa = 3000.0
	cases := []struct {
		level float64
		want  float64
	}{
		{0.9, kappa * 1.5},
		{0.6, kappa},
		{0.3, kappa * 0.5},
		{0.1, kappa * 0.1},
	}
	for _, tc := range cases {
		b := newBattery(t, BatteryConfig{InitialLevel: tc.level})
		if got := b.ReplenishRate(kappa); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("ReplenishRate at level %.1f = %f, want %f", tc.level, got, tc.want)
		}
	}
}

// Property: battery level stays in [0, 1] under arbitrary tick/spend mixes.
func TestBatteryLevelBoundedProperty(t *testing.T) {
	prop := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBattery(BatteryConfig{}, rng)
		if err != nil {
			return false
		}
		for i, op := range ops {
			if op%2 == 0 {
				b.Tick(int(op) % 24)
			} else if spent := b.Spend(float64(op)); spent < 0 || spent > float64(op) {
				return false
			}
			if b.Level() < 0 || b.Level() > 1 {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBatteryRestoreFarSeek restores to a draw count no replay could
// reach: Restore seeks, so it returns at once, and the next tick draws
// exactly what a fresh stream sought to the same position does.
func TestBatteryRestoreFarSeek(t *testing.T) {
	const seed, far = 9, uint64(1) << 40
	b, err := NewBatterySeeded(BatteryConfig{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(0.5, far); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b.Draws() != far {
		t.Fatalf("draws %d after restore, want %d", b.Draws(), far)
	}
	ref := sim.NewStream(seed)
	ref.Seek(far)
	if got, want := b.rng.Float64(), ref.Float64(); got != want {
		t.Fatalf("draw at 2^40 = %v, want %v", got, want)
	}
}
