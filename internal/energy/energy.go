// Package energy models the device-side energy costs and budgets of
// RichNote's scheduler.
//
// The transfer-energy model follows the measurement study of
// Balasubramanian et al. (IMC 2009), the paper's reference [9]: a cellular
// (3G) download costs a ramp-up, a per-byte transfer component and a
// radio tail that keeps the interface in a high-power state after the
// transfer; WiFi pays a much smaller association cost and lower per-byte
// energy and has no long tail.
//
// The battery model replaces the per-user battery-status traces the paper
// obtains from Do et al. (INFOCOM 2014): a diurnal drain/recharge cycle
// that yields the replenishment rate e(t) the scheduler credits to the
// virtual energy queue each round.
package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/sim"
)

// TransferModel holds the per-interface energy parameters in joules.
type TransferModel struct {
	// CellRampJ is the 3G promotion energy per transfer batch.
	CellRampJ float64
	// CellPerKB is the 3G transfer energy per kilobyte.
	CellPerKB float64
	// CellTailJ is the 3G tail energy paid once per transfer batch.
	CellTailJ float64
	// WifiAssocJ is the WiFi association/scan energy per batch.
	WifiAssocJ float64
	// WifiPerKB is the WiFi transfer energy per kilobyte.
	WifiPerKB float64
}

// DefaultTransferModel returns parameters consistent with the IMC 2009
// measurements (3G ≈ 0.025 J/KB with ~12.5 s tail at ~0.5 W; WiFi ≈
// 0.007 J/KB with a small association cost).
func DefaultTransferModel() TransferModel {
	return TransferModel{
		CellRampJ:  3.5,
		CellPerKB:  0.025,
		CellTailJ:  6.25,
		WifiAssocJ: 0.9,
		WifiPerKB:  0.007,
	}
}

// ErrUnknownState is returned for energy queries in a state with no radio.
var ErrUnknownState = errors.New("energy: no transfer energy defined for network state")

// TransferJ returns the energy (joules) to download size bytes over the
// given network state, excluding batch overheads.
func (m TransferModel) TransferJ(size int64, state network.State) (float64, error) {
	kb := float64(size) / 1000
	switch state {
	case network.StateCell:
		return kb * m.CellPerKB, nil
	case network.StateWifi:
		return kb * m.WifiPerKB, nil
	default:
		return 0, fmt.Errorf("%w: %s", ErrUnknownState, state)
	}
}

// BatchOverheadJ returns the fixed per-batch energy (ramp + tail for 3G,
// association for WiFi) paid once per round in which any download happens.
func (m TransferModel) BatchOverheadJ(state network.State) float64 {
	switch state {
	case network.StateCell:
		return m.CellRampJ + m.CellTailJ
	case network.StateWifi:
		return m.WifiAssocJ
	default:
		return 0
	}
}

// Battery simulates a device battery with a diurnal usage pattern. Levels
// are in [0, 1].
type Battery struct {
	capacityJ float64
	level     float64

	// drainPerHour is the background drain as a fraction of capacity.
	drainPerHour float64
	// rechargeStartHour..rechargeEndHour is the nightly charging window.
	rechargeStartHour int
	rechargeEndHour   int
	rechargePerHour   float64

	rng sim.Stream
}

// BatteryConfig configures a Battery.
type BatteryConfig struct {
	// CapacityJ defaults to 37,000 J (a ~10.3 Wh phone battery).
	CapacityJ float64
	// InitialLevel defaults to 0.8.
	InitialLevel float64
	// DrainPerHour is background usage; defaults to 0.03 (3%/h).
	DrainPerHour float64
	// RechargeStartHour/RechargeEndHour default to 23 and 7 (overnight).
	RechargeStartHour int
	RechargeEndHour   int
	// RechargePerHour defaults to 0.25 (full charge in ~4 h).
	RechargePerHour float64
}

// NewBattery builds a battery whose jitter stream is keyed by one draw
// from rng; it adapts callers holding a *rand.Rand to NewBatterySeeded.
func NewBattery(cfg BatteryConfig, rng *rand.Rand) (*Battery, error) {
	if rng == nil {
		return nil, errors.New("energy: nil rng")
	}
	return NewBatterySeeded(cfg, rng.Int63())
}

// NewBatterySeeded builds a battery whose per-user drain jitter draws from
// the seekable stream keyed by seed; core.Engine keys each device's as
// sim.StreamSeed(userSeed, sim.StreamEnergy).
func NewBatterySeeded(cfg BatteryConfig, seed int64) (*Battery, error) {
	if cfg.CapacityJ == 0 {
		cfg.CapacityJ = 37_000
	}
	if cfg.CapacityJ < 0 {
		return nil, fmt.Errorf("energy: negative capacity %f", cfg.CapacityJ)
	}
	if cfg.InitialLevel == 0 {
		cfg.InitialLevel = 0.8
	}
	if cfg.InitialLevel < 0 || cfg.InitialLevel > 1 {
		return nil, fmt.Errorf("energy: initial level %f outside [0,1]", cfg.InitialLevel)
	}
	if cfg.DrainPerHour == 0 {
		cfg.DrainPerHour = 0.03
	}
	if cfg.RechargeStartHour == 0 && cfg.RechargeEndHour == 0 {
		cfg.RechargeStartHour, cfg.RechargeEndHour = 23, 7
	}
	if cfg.RechargePerHour == 0 {
		cfg.RechargePerHour = 0.25
	}
	return &Battery{
		capacityJ:         cfg.CapacityJ,
		level:             cfg.InitialLevel,
		drainPerHour:      cfg.DrainPerHour,
		rechargeStartHour: cfg.RechargeStartHour,
		rechargeEndHour:   cfg.RechargeEndHour,
		rechargePerHour:   cfg.RechargePerHour,
		rng:               sim.NewStream(seed),
	}, nil
}

// Level returns the battery level in [0, 1].
func (b *Battery) Level() float64 { return b.level }

// CapacityJ returns the battery capacity in joules.
func (b *Battery) CapacityJ() float64 { return b.capacityJ }

// inRechargeWindow reports whether hourOfDay falls in the charging window,
// which may wrap midnight.
func (b *Battery) inRechargeWindow(hourOfDay int) bool {
	s, e := b.rechargeStartHour, b.rechargeEndHour
	if s <= e {
		return hourOfDay >= s && hourOfDay < e
	}
	return hourOfDay >= s || hourOfDay < e
}

// Tick advances the battery by one hour at the given hour of day, applying
// background drain or recharge with jitter.
func (b *Battery) Tick(hourOfDay int) {
	if b.inRechargeWindow(hourOfDay) {
		b.level += b.rechargePerHour * (0.8 + 0.4*b.rng.Float64())
	} else {
		b.level -= b.drainPerHour * (0.5 + b.rng.Float64())
	}
	b.level = math.Max(0, math.Min(1, b.level))
}

// FastForward applies k consecutive Ticks in one call; hourAt returns the
// hour of day for the i-th skipped tick (i in [0, k)). The jitter stream
// could seek past the k draws, but the level clamps per tick, so there is
// no closed form for the batch: the ticks run in a tight loop over the
// in-struct stream, a few ns each, bit-identical to k separate Tick calls
// by construction. Devices parked by the event-driven round loop use this
// to catch their diurnal battery trajectory up on wake (DESIGN.md §14).
//
// richnote:allocfree
func (b *Battery) FastForward(k int, hourAt func(int) int) {
	for i := 0; i < k; i++ {
		b.Tick(hourAt(i))
	}
}

// Draws returns how many random draws the battery has consumed. Together
// with the seed it pins the jitter stream, for snapshot/restore.
func (b *Battery) Draws() uint64 { return b.rng.Draws() }

// Restore sets the level and seeks the jitter stream to the given draw
// count on an identically keyed battery, resuming the exact jitter
// sequence of the snapshotted one. Like network.Model.Restore it never
// rewinds. Levels outside [0, 1], NaN included, are refused.
func (b *Battery) Restore(level float64, draws uint64) error {
	if !(level >= 0 && level <= 1) {
		return fmt.Errorf("energy: restore level %f outside [0,1]", level)
	}
	if draws < b.rng.Draws() {
		return fmt.Errorf("energy: restore draws %d behind current %d", draws, b.rng.Draws())
	}
	b.rng.Seek(draws)
	b.level = level
	return nil
}

// Spend draws the given joules from the battery. It returns the amount
// actually drawn (bounded by the remaining charge).
func (b *Battery) Spend(joules float64) float64 {
	if joules < 0 {
		return 0
	}
	avail := b.level * b.capacityJ
	spent := math.Min(joules, avail)
	b.level -= spent / b.capacityJ
	if b.level < 0 {
		b.level = 0
	}
	return spent
}

// ReplenishRate returns e(t): the energy budget (joules) granted to the
// notification scheduler for the current round, given the per-round target
// kappa. The grant scales with battery level — a full battery grants above
// target, a depleted battery throttles the scheduler — mimicking the
// variable-rate replenishment of Algorithm 2.
func (b *Battery) ReplenishRate(kappa float64) float64 {
	switch {
	case b.level >= 0.8:
		return kappa * 1.5
	case b.level >= 0.5:
		return kappa
	case b.level >= 0.2:
		return kappa * 0.5
	default:
		return kappa * 0.1
	}
}
