package network

import (
	"fmt"

	"github.com/richnote/richnote/internal/sim"
)

// FaultConfig describes per-state transfer fault probabilities. The zero
// value injects no faults: every transfer succeeds exactly as it did before
// fault injection existed, and a nil *FaultModel behaves the same way, so
// existing callers and tests stay bit-identical.
//
// For each attempted transfer in a faulty state, one of three things
// happens:
//
//   - with probability Loss the transfer is lost outright: zero bytes cross
//     the link (the radio still pays its ramp energy);
//   - with probability Disconnect the link drops mid-transfer: a strict
//     prefix of the payload crosses the link and is billed for energy but
//     the item is not delivered;
//   - otherwise the transfer succeeds in full.
//
// Loss + Disconnect must not exceed 1 per state. Cellular is expected to be
// configured lossier than WiFi, mirroring the asymmetry of the three-state
// model, but the config does not enforce that.
type FaultConfig struct {
	// CellLoss is the probability a cellular transfer is lost outright.
	CellLoss float64
	// WifiLoss is the probability a WiFi transfer is lost outright.
	WifiLoss float64
	// CellDisconnect is the probability a cellular transfer disconnects
	// mid-flight, completing only a prefix.
	CellDisconnect float64
	// WifiDisconnect is the probability a WiFi transfer disconnects
	// mid-flight, completing only a prefix.
	WifiDisconnect float64
}

// Validate reports configuration errors.
func (c FaultConfig) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("network: fault probability %s=%f outside [0,1]", name, p)
		}
		return nil
	}
	if err := check("cell-loss", c.CellLoss); err != nil {
		return err
	}
	if err := check("wifi-loss", c.WifiLoss); err != nil {
		return err
	}
	if err := check("cell-disconnect", c.CellDisconnect); err != nil {
		return err
	}
	if err := check("wifi-disconnect", c.WifiDisconnect); err != nil {
		return err
	}
	if s := c.CellLoss + c.CellDisconnect; s > 1 {
		return fmt.Errorf("network: cell loss+disconnect %f exceeds 1", s)
	}
	if s := c.WifiLoss + c.WifiDisconnect; s > 1 {
		return fmt.Errorf("network: wifi loss+disconnect %f exceeds 1", s)
	}
	return nil
}

// Enabled reports whether any fault probability is non-zero.
func (c FaultConfig) Enabled() bool {
	return c.CellLoss > 0 || c.WifiLoss > 0 || c.CellDisconnect > 0 || c.WifiDisconnect > 0
}

// forState returns the (loss, disconnect) probabilities for a state.
// Offline states cannot transfer at all, so they carry no fault mass.
func (c FaultConfig) forState(s State) (loss, disconnect float64) {
	switch s {
	case StateCell:
		return c.CellLoss, c.CellDisconnect
	case StateWifi:
		return c.WifiLoss, c.WifiDisconnect
	default:
		return 0, 0
	}
}

// TransferOutcome is the result of one attempted transfer.
type TransferOutcome struct {
	// Delivered is true when the full payload crossed the link.
	Delivered bool
	// Bytes is how many bytes actually crossed the link. Equal to the
	// payload size on success, zero on outright loss, and a strict prefix
	// (possibly zero) on mid-transfer disconnect. The radio burns energy
	// for these bytes whether or not the transfer succeeded.
	Bytes int64
}

// FaultModel draws per-transfer fault outcomes from its own seekable
// random stream.
//
// Like Model, a FaultModel is NOT safe for concurrent use: each device owns
// its fault model exclusively, keyed per user. A nil *FaultModel is valid
// and never faults, which is how fault injection stays out of the hot path
// when disabled. When a state's fault probabilities are all zero, Attempt
// succeeds without drawing from the stream, so enabling faults on CELL only
// does not perturb the outcome sequence WiFi transfers would see.
type FaultModel struct {
	cfg FaultConfig
	rng sim.Stream
}

// NewFaultModelSeeded builds a fault model drawing from the stream keyed
// by seed; core.Engine keys each device's as
// sim.StreamSeed(userSeed, sim.StreamFaults).
func NewFaultModelSeeded(cfg FaultConfig, seed int64) (*FaultModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FaultModel{cfg: cfg, rng: sim.NewStream(seed)}, nil
}

// Config returns the fault configuration (zero for a nil model).
func (f *FaultModel) Config() FaultConfig {
	if f == nil {
		return FaultConfig{}
	}
	return f.cfg
}

// Enabled reports whether this model can ever fault. Nil models never do.
func (f *FaultModel) Enabled() bool { return f != nil && f.cfg.Enabled() }

// Draws returns how many random draws the model has consumed (0 for nil).
func (f *FaultModel) Draws() uint64 {
	if f == nil {
		return 0
	}
	return f.rng.Draws()
}

// Restore seeks the stream to the given draw count on an identically keyed
// model, resuming the exact random sequence of the snapshotted one. Like
// Model.Restore it never rewinds. A nil model only accepts zero draws.
func (f *FaultModel) Restore(draws uint64) error {
	if f == nil {
		if draws != 0 {
			return fmt.Errorf("network: restore %d fault draws into nil model", draws)
		}
		return nil
	}
	if draws < f.rng.Draws() {
		return fmt.Errorf("network: restore fault draws %d behind current %d", draws, f.rng.Draws())
	}
	f.rng.Seek(draws)
	return nil
}

// Attempt draws the outcome of transferring size bytes in the given state.
// A nil model, a fault-free state, or a non-positive size always succeeds
// without consuming randomness.
func (f *FaultModel) Attempt(size int64, s State) TransferOutcome {
	if f == nil || size <= 0 {
		return TransferOutcome{Delivered: true, Bytes: size}
	}
	loss, disconnect := f.cfg.forState(s)
	if loss == 0 && disconnect == 0 {
		return TransferOutcome{Delivered: true, Bytes: size}
	}
	u := f.rng.Float64()
	switch {
	case u < loss:
		return TransferOutcome{Delivered: false, Bytes: 0}
	case u < loss+disconnect:
		// A strict prefix crossed the link: frac in [0,1) keeps the
		// completed byte count strictly below size.
		frac := f.rng.Float64()
		b := int64(frac * float64(size))
		if b >= size {
			b = size - 1
		}
		return TransferOutcome{Delivered: false, Bytes: b}
	default:
		return TransferOutcome{Delivered: true, Bytes: size}
	}
}
