package sched

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
)

// newStateTestDevice builds a RichNote device on deterministic seeds. Both
// the original and the restored replica call it with the same seed so their
// RNG streams line up.
func newStateTestDevice(t *testing.T, seed int64) *Device {
	t.Helper()
	netModel, err := network.NewModelSeeded(network.PaperMatrix(), network.StateCell, seed)
	if err != nil {
		t.Fatal(err)
	}
	battery, err := energy.NewBatterySeeded(energy.BatteryConfig{}, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := network.NewFaultModelSeeded(network.FaultConfig{CellLoss: 0.2, CellDisconnect: 0.1}, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := lyapunov.New(lyapunov.Config{V: 1000, Kappa: 3000})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(DeviceConfig{
		User:              7,
		Strategy:          &RichNote{},
		WeeklyBudgetBytes: 100 << 20,
		Epoch:             time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
		Network:           netModel,
		Capacity:          network.DefaultCapacity(),
		Battery:           battery,
		Transfer:          energy.DefaultTransferModel(),
		Faults:            faults,
		Controller:        ctl,
		Collector:         metrics.NewCollector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func stateTestItems(round int, n int) []Queued {
	items := make([]Queued, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, Queued{
			Rich: notif.RichItem{
				Item: notif.Item{
					ID:        notif.ItemID(round*100 + i),
					Kind:      notif.KindAudio,
					Recipient: 7,
				},
				ContentUtility: 0.5,
				Presentations: []notif.Presentation{
					{Level: 1, Size: 200, Utility: 0.3},
					{Level: 2, Size: 2 << 20, Utility: 0.9},
				},
				ArrivedRound: round,
			},
			TrueUc: 0.5,
		})
	}
	return items
}

// TestDeviceStateRoundTrip runs a device for a while, exports its state into
// a freshly built replica, and requires both to walk identical trajectories
// afterwards — the component-level version of the server's bit-identical
// crash-recovery guarantee.
func TestDeviceStateRoundTrip(t *testing.T) {
	const seed = 42
	orig := newStateTestDevice(t, seed)
	for round := 0; round < 30; round++ {
		if round%3 == 0 {
			if err := orig.Enqueue(stateTestItems(round, 2)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := orig.RunRound(round); err != nil {
			t.Fatal(err)
		}
	}

	exported := orig.ExportState()
	replica := newStateTestDevice(t, seed)
	if err := replica.RestoreState(exported); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if !reflect.DeepEqual(replica.ExportState(), exported) {
		t.Fatal("replica export differs from the state it was restored from")
	}

	for round := 30; round < 60; round++ {
		if round%4 == 0 {
			batch := stateTestItems(round, 1)
			if err := orig.Enqueue(batch); err != nil {
				t.Fatal(err)
			}
			if err := replica.Enqueue(stateTestItems(round, 1)); err != nil {
				t.Fatal(err)
			}
		}
		ro, errO := orig.RunRound(round)
		rr, errR := replica.RunRound(round)
		if (errO == nil) != (errR == nil) {
			t.Fatalf("round %d: error divergence: %v vs %v", round, errO, errR)
		}
		if !reflect.DeepEqual(ro, rr) {
			t.Fatalf("round %d: results diverge:\n  orig    %+v\n  replica %+v", round, ro, rr)
		}
	}
	if !reflect.DeepEqual(orig.ExportState(), replica.ExportState()) {
		t.Fatal("final states diverge after identical post-restore rounds")
	}
}

// TestDeviceRestoreRejectsMismatch pins the restore guardrails.
func TestDeviceRestoreRejectsMismatch(t *testing.T) {
	d := newStateTestDevice(t, 1)
	s := d.ExportState()

	bad := s
	bad.HasController = false
	if err := d.RestoreState(bad); err == nil {
		t.Fatal("controller presence mismatch accepted")
	}
	bad = s
	bad.BudgetDebited = 5
	bad.BudgetRefunded = 10
	if err := d.RestoreState(bad); err == nil {
		t.Fatal("refunded > debited accepted")
	}
	for _, level := range []float64{1.5, math.NaN()} {
		bad = s
		bad.BatteryLevel = level
		if err := d.RestoreState(bad); err == nil {
			t.Fatalf("battery level %v outside [0,1] accepted", level)
		}
	}
	// Restore never rewinds a stream: restoring an old draw count into a
	// device that has advanced must fail.
	if _, err := d.RunRound(0); err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreState(s); err == nil {
		t.Fatal("draw-count rewind accepted")
	}
}
