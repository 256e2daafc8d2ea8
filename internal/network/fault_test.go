package network

import (
	"testing"

	"github.com/richnote/richnote/internal/sim"
)

func TestFaultConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  FaultConfig
		ok   bool
	}{
		{"zero", FaultConfig{}, true},
		{"typical", FaultConfig{CellLoss: 0.2, WifiLoss: 0.02, CellDisconnect: 0.1, WifiDisconnect: 0.01}, true},
		{"negative", FaultConfig{CellLoss: -0.1}, false},
		{"above one", FaultConfig{WifiDisconnect: 1.5}, false},
		{"cell mass exceeds one", FaultConfig{CellLoss: 0.7, CellDisconnect: 0.5}, false},
		{"wifi mass exceeds one", FaultConfig{WifiLoss: 0.6, WifiDisconnect: 0.6}, false},
		{"mass exactly one", FaultConfig{CellLoss: 0.5, CellDisconnect: 0.5}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

func TestNilFaultModelAlwaysSucceeds(t *testing.T) {
	var f *FaultModel
	if f.Enabled() {
		t.Fatal("nil model reports enabled")
	}
	for _, s := range []State{StateOff, StateCell, StateWifi} {
		out := f.Attempt(1<<20, s)
		if !out.Delivered || out.Bytes != 1<<20 {
			t.Fatalf("nil model in %v: got %+v", s, out)
		}
	}
	if got := f.Config(); got != (FaultConfig{}) {
		t.Fatalf("nil model config = %+v", got)
	}
}

func TestZeroProbStateDrawsNoRandomness(t *testing.T) {
	// CELL faults configured, WiFi clean: WiFi attempts must not consume
	// RNG state, so a CELL attempt after any number of WiFi attempts sees
	// the same draw it would have seen immediately.
	cfg := FaultConfig{CellLoss: 0.5, CellDisconnect: 0.25}
	a, err := NewFaultModelSeeded(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFaultModelSeeded(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		out := b.Attempt(4096, StateWifi)
		if !out.Delivered || out.Bytes != 4096 {
			t.Fatalf("wifi attempt %d faulted with zero probability: %+v", i, out)
		}
	}
	for i := 0; i < 50; i++ {
		got, want := b.Attempt(4096, StateCell), a.Attempt(4096, StateCell)
		if got != want {
			t.Fatalf("cell attempt %d diverged after wifi attempts: got %+v want %+v", i, got, want)
		}
	}
}

func TestAttemptOutcomeDistribution(t *testing.T) {
	cfg := FaultConfig{CellLoss: 0.3, CellDisconnect: 0.2}
	f, err := NewFaultModelSeeded(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	const size = int64(10000)
	var lost, disconnected, ok int
	for i := 0; i < n; i++ {
		out := f.Attempt(size, StateCell)
		switch {
		case out.Delivered:
			ok++
			if out.Bytes != size {
				t.Fatalf("delivered with %d bytes, want %d", out.Bytes, size)
			}
		case out.Bytes == 0:
			lost++
		default:
			disconnected++
			if out.Bytes < 0 || out.Bytes >= size {
				t.Fatalf("disconnect prefix %d outside [0,%d)", out.Bytes, size)
			}
		}
	}
	within := func(name string, got int, p float64) {
		want := p * n
		if d := float64(got) - want; d < -0.05*n || d > 0.05*n {
			t.Errorf("%s count %d far from expected %.0f", name, got, want)
		}
	}
	// Outright losses also produce Bytes==0, and a disconnect can draw a
	// zero-byte prefix; the zero-prefix mass is tiny (0.2/10000), so the
	// buckets above are approximately the configured split.
	within("lost", lost, cfg.CellLoss)
	within("disconnected", disconnected, cfg.CellDisconnect)
	within("delivered", ok, 1-cfg.CellLoss-cfg.CellDisconnect)
}

func TestAttemptDeterministicAcrossSeeds(t *testing.T) {
	cfg := FaultConfig{CellLoss: 0.2, WifiLoss: 0.05, CellDisconnect: 0.1, WifiDisconnect: 0.02}
	a, _ := NewFaultModelSeeded(cfg, 99)
	b, _ := NewFaultModelSeeded(cfg, 99)
	c, _ := NewFaultModelSeeded(cfg, 100)
	diverged := false
	for i := 0; i < 500; i++ {
		s := StateCell
		if i%3 == 0 {
			s = StateWifi
		}
		x, y, z := a.Attempt(1<<16, s), b.Attempt(1<<16, s), c.Attempt(1<<16, s)
		if x != y {
			t.Fatalf("same-seed models diverged at %d: %+v vs %+v", i, x, y)
		}
		if x != z {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical outcome sequences")
	}
}

func TestNonPositiveSizeSucceedsWithoutDraw(t *testing.T) {
	cfg := FaultConfig{CellLoss: 1}
	f, _ := NewFaultModelSeeded(cfg, 1)
	out := f.Attempt(0, StateCell)
	if !out.Delivered || out.Bytes != 0 {
		t.Fatalf("zero-size attempt: %+v", out)
	}
	// The certain-loss draw must still be pending: the next real attempt
	// is lost.
	if got := f.Attempt(100, StateCell); got.Delivered {
		t.Fatalf("certain loss delivered: %+v", got)
	}
}

// TestRestoreFarSeek restores a walk and a fault model to a draw count no
// replay could reach: Restore seeks, so it returns at once, and the next
// draw is exactly what a fresh stream sought to the same position gives.
func TestRestoreFarSeek(t *testing.T) {
	const seed, far = 9, uint64(1) << 40
	m, err := NewModelSeeded(PaperMatrix(), StateCell, seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFaultModelSeeded(FaultConfig{CellLoss: 0.5}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(StateWifi, far); err != nil {
		t.Fatalf("Model.Restore: %v", err)
	}
	if err := f.Restore(far); err != nil {
		t.Fatalf("FaultModel.Restore: %v", err)
	}
	if m.Draws() != far || f.Draws() != far || m.State() != StateWifi {
		t.Fatalf("after restore: walk (%s, %d), faults %d; want (WIFI, %d), %d",
			m.State(), m.Draws(), f.Draws(), far, far)
	}
	ref := sim.NewStream(seed)
	ref.Seek(far)
	want := ref.Float64()
	if got := m.rng.Float64(); got != want {
		t.Errorf("walk draw at 2^40 = %v, want %v", got, want)
	}
	if got := f.rng.Float64(); got != want {
		t.Errorf("fault draw at 2^40 = %v, want %v", got, want)
	}
	if err := m.Restore(StateCell, far); err == nil {
		t.Error("walk restore behind its own position accepted")
	}
	if err := f.Restore(far); err == nil {
		t.Error("fault restore behind its own position accepted")
	}
}
