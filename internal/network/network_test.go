package network

import (
	"math"
	"testing"
)

func TestStateStrings(t *testing.T) {
	if StateOff.String() != "OFF" || StateCell.String() != "CELL" || StateWifi.String() != "WIFI" {
		t.Fatal("state names mismatch")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state must render")
	}
	if StateOff.Online() || !StateCell.Online() || !StateWifi.Online() {
		t.Fatal("Online() wrong")
	}
}

func TestBuiltinMatricesValid(t *testing.T) {
	for name, m := range map[string]Matrix{
		"paper":       PaperMatrix(),
		"cell-only":   CellOnlyMatrix(),
		"always-cell": AlwaysCellMatrix(),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s matrix invalid: %v", name, err)
		}
	}
}

func TestValidateRejectsBadMatrix(t *testing.T) {
	bad := Matrix{{0.5, 0.2, 0.2}, {0.25, 0.5, 0.25}, {0.25, 0.25, 0.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-stochastic row accepted")
	}
	neg := Matrix{{-0.5, 1.5, 0}, {0.25, 0.5, 0.25}, {0.25, 0.25, 0.5}}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative probability accepted")
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModelSeeded(PaperMatrix(), State(0), 1); err == nil {
		t.Error("invalid start state accepted")
	}
	bad := Matrix{}
	if _, err := NewModelSeeded(bad, StateCell, 1); err == nil {
		t.Error("zero matrix accepted")
	}
}

// The paper's chain is ergodic with uniform stationary distribution (the
// matrix is doubly stochastic); verify empirical state shares approach 1/3.
func TestPaperMatrixStationaryDistribution(t *testing.T) {
	m, err := NewModelSeeded(PaperMatrix(), StateOff, 2)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	counts := map[State]int{}
	const steps = 60_000
	for i := 0; i < steps; i++ {
		counts[m.Step()]++
	}
	for _, s := range []State{StateOff, StateCell, StateWifi} {
		share := float64(counts[s]) / steps
		if math.Abs(share-1.0/3.0) > 0.02 {
			t.Fatalf("state %s share %.3f, want ~0.333", s, share)
		}
	}
}

func TestSelfTransitionProbability(t *testing.T) {
	m, err := NewModelSeeded(PaperMatrix(), StateCell, 3)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	stays, steps := 0, 40_000
	prev := m.State()
	for i := 0; i < steps; i++ {
		next := m.Step()
		if next == prev {
			stays++
		}
		prev = next
	}
	share := float64(stays) / float64(steps)
	if math.Abs(share-0.5) > 0.02 {
		t.Fatalf("self-transition share %.3f, want ~0.5", share)
	}
}

func TestAlwaysCellNeverLeaves(t *testing.T) {
	m, err := NewModelSeeded(AlwaysCellMatrix(), StateCell, 4)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if m.Step() != StateCell {
			t.Fatal("always-cell model left CELL")
		}
	}
}

func TestCellOnlyNeverWifi(t *testing.T) {
	m, err := NewModelSeeded(CellOnlyMatrix(), StateCell, 5)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	for i := 0; i < 5000; i++ {
		if m.Step() == StateWifi {
			t.Fatal("cell-only model reached WIFI")
		}
	}
}

func TestCapacity(t *testing.T) {
	c := DefaultCapacity()
	cell := c.For(StateCell)
	if !cell.BillsDataPlan || cell.Bytes == 0 {
		t.Fatalf("cell capacity %+v, want billable and positive", cell)
	}
	wifi := c.For(StateWifi)
	if wifi.BillsDataPlan {
		t.Fatal("wifi bytes must not bill the data plan")
	}
	if wifi.Bytes <= cell.Bytes {
		t.Fatal("wifi capacity should exceed cellular")
	}
	off := c.For(StateOff)
	if off.Bytes != 0 || off.BillsDataPlan {
		t.Fatalf("offline capacity %+v, want zero", off)
	}
}

func TestNewModelSeededDeterministic(t *testing.T) {
	a, err := NewModelSeeded(PaperMatrix(), StateCell, 7)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	b, err := NewModelSeeded(PaperMatrix(), StateCell, 7)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	for i := 0; i < 200; i++ {
		if sa, sb := a.Step(), b.Step(); sa != sb {
			t.Fatalf("step %d: same seed diverged: %s vs %s", i, sa, sb)
		}
	}
}

func TestNewModelSeededIndependent(t *testing.T) {
	a, err := NewModelSeeded(PaperMatrix(), StateCell, 1)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	b, err := NewModelSeeded(PaperMatrix(), StateCell, 2)
	if err != nil {
		t.Fatalf("NewModelSeeded: %v", err)
	}
	same := 0
	const n = 500
	for i := 0; i < n; i++ {
		if a.Step() == b.Step() {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical walks")
	}
	if err := func() error { _, err := NewModelSeeded(Matrix{}, StateCell, 1); return err }(); err == nil {
		t.Fatal("invalid matrix must be rejected")
	}
}
