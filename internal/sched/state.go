package sched

import (
	"fmt"

	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/network"
)

// DeviceState is the complete mutable state of a Device, exported for
// snapshot/restore (DESIGN.md §12). Configuration is excluded: restore
// happens into a device rebuilt from the same DeviceConfig, so only the
// state that accumulates across rounds is captured. Random components
// (battery jitter, connectivity walk, fault draws) are captured as draw
// counts: each is a sim.Stream position, so keying the stream identically
// and seeking to the count resumes the exact random sequence in O(1),
// which is what makes recovery bit-identical.
type DeviceState struct {
	// Queue is the scheduling queue, in order.
	Queue []Queued

	// Cellular data-plan ledger B(t), exported in its lazy representation
	// (balance = base + pending·θ): folding the pending product into the
	// base happens at the same future Debit/Refund/Reset in a restored run
	// as it would have live, keeping recovery bit-identical (θ itself is
	// fixed by the device configuration and not exported).
	BudgetBase          float64
	BudgetPendingRounds int64
	BudgetDebited       float64
	BudgetRefunded      float64

	// Battery level and jitter-stream position.
	BatteryLevel float64
	BatteryDraws uint64

	// Connectivity state and walk position.
	NetworkState network.State
	NetworkDraws uint64

	// Fault-stream position (0 when faults are disabled).
	FaultDraws uint64

	// Lyapunov controller state; HasController is false for baselines.
	Controller    lyapunov.State
	HasController bool

	// NextRound is the round the device will process next; the event-driven
	// shard settles every device to its clock before exporting, but the
	// field keeps the device export self-contained.
	NextRound int
}

// ExportState captures the device's mutable state. The queue is deep-copied
// at the slice level so later rounds do not mutate the export; the items
// inside are treated as immutable once queued (the scheduler only rewrites
// Attempts/LevelCap through the copy's own entries).
func (d *Device) ExportState() DeviceState {
	base, pending := d.budget.lazy()
	s := DeviceState{
		Queue:               append([]Queued(nil), d.queue...),
		BudgetBase:          base,
		BudgetPendingRounds: pending,
		BudgetDebited:       d.budget.Debited(),
		BudgetRefunded:      d.budget.Refunded(),
		BatteryLevel:        d.cfg.Battery.Level(),
		BatteryDraws:        d.cfg.Battery.Draws(),
		NetworkState:        d.cfg.Network.State(),
		NetworkDraws:        d.cfg.Network.Draws(),
		FaultDraws:          d.cfg.Faults.Draws(),
		NextRound:           d.nextRound,
	}
	if d.cfg.Controller != nil {
		s.Controller = d.cfg.Controller.ExportState()
		s.HasController = true
	}
	return s
}

// RestoreState overwrites the device's mutable state with a previously
// exported snapshot. The device must be freshly constructed from the same
// DeviceConfig (same strategy, budgets, seeds) as the exporting one. Each
// random stream seeks straight to its snapshotted draw count, however far;
// restoring into a device that has already drawn past a count fails,
// because the components refuse to rewind.
func (d *Device) RestoreState(s DeviceState) error {
	if s.HasController != (d.cfg.Controller != nil) {
		return fmt.Errorf("sched: restore controller presence mismatch: snapshot %t, device %t",
			s.HasController, d.cfg.Controller != nil)
	}
	if s.BudgetPendingRounds < 0 {
		return fmt.Errorf("sched: restore negative pending accrual rounds %d", s.BudgetPendingRounds)
	}
	if s.BudgetRefunded > s.BudgetDebited {
		return fmt.Errorf("sched: restore ledger refunded %f exceeds debited %f",
			s.BudgetRefunded, s.BudgetDebited)
	}
	for i := range s.Queue {
		if err := s.Queue[i].Rich.Validate(); err != nil {
			return fmt.Errorf("sched: restore queue entry %d: %w", i, err)
		}
	}
	if err := d.cfg.Battery.Restore(s.BatteryLevel, s.BatteryDraws); err != nil {
		return fmt.Errorf("sched: restore: %w", err)
	}
	if err := d.cfg.Network.Restore(s.NetworkState, s.NetworkDraws); err != nil {
		return fmt.Errorf("sched: restore: %w", err)
	}
	if err := d.cfg.Faults.Restore(s.FaultDraws); err != nil {
		return fmt.Errorf("sched: restore: %w", err)
	}
	if d.cfg.Controller != nil {
		if err := d.cfg.Controller.RestoreState(s.Controller); err != nil {
			return fmt.Errorf("sched: restore: %w", err)
		}
	}
	d.queue = append(d.queue[:0], s.Queue...)
	d.budget.restore(s.BudgetBase, s.BudgetPendingRounds, d.theta, s.BudgetDebited, s.BudgetRefunded)
	d.nextRound = s.NextRound
	return nil
}
