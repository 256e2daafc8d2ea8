// Package network implements the three-state Markov connectivity model the
// paper uses in Section V-D-3 (from Do et al., INFOCOM 2014): a device is
// on WiFi, on cellular, or offline. The paper's setting keeps a 50%
// probability of remaining in the current state and splits the remaining
// mass equally among transitions; devices leaving OFF pick CELL or WiFi
// with equal probability.
//
// The package also accounts per-state round capacity: cellular bytes count
// against the user's data plan while WiFi bytes do not, which is what lets
// RichNote deliver richer presentations when WiFi is available (Fig. 5c).
package network

import (
	"errors"
	"fmt"

	"github.com/richnote/richnote/internal/sim"
)

// State is the connectivity state of a device.
type State int

// Connectivity states.
const (
	StateOff State = iota + 1
	StateCell
	StateWifi
)

// String returns the canonical name of the state.
func (s State) String() string {
	switch s {
	case StateOff:
		return "OFF"
	case StateCell:
		return "CELL"
	case StateWifi:
		return "WIFI"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Online reports whether any network is available.
func (s State) Online() bool { return s == StateCell || s == StateWifi }

// Matrix is a row-stochastic transition matrix indexed by [from][to] over
// (OFF, CELL, WIFI) in that order.
type Matrix [3][3]float64

// index maps a State to its matrix row/column.
func index(s State) int { return int(s) - 1 }

// ErrNotStochastic is returned when a matrix row does not sum to 1.
var ErrNotStochastic = errors.New("network: transition matrix row does not sum to 1")

// Validate checks that every row is a probability distribution.
func (m Matrix) Validate() error {
	for r, row := range m {
		sum := 0.0
		for _, p := range row {
			if p < 0 || p > 1 {
				return fmt.Errorf("network: probability %f outside [0,1] in row %d", p, r)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("%w: row %d sums to %f", ErrNotStochastic, r, sum)
		}
	}
	return nil
}

// PaperMatrix returns the transition model of Section V-D-3: 50% to remain
// in the current state, the rest split equally; from OFF the device moves
// to CELL or WIFI with equal probability.
func PaperMatrix() Matrix {
	return Matrix{
		// from OFF:  stay 0.5, cell 0.25, wifi 0.25
		{0.5, 0.25, 0.25},
		// from CELL: off 0.25, stay 0.5, wifi 0.25
		{0.25, 0.5, 0.25},
		// from WIFI: off 0.25, cell 0.25, stay 0.5
		{0.25, 0.25, 0.5},
	}
}

// CellOnlyMatrix returns the cellular-only baseline model used for all
// experiments except Fig. 5(c): the device alternates between CELL and OFF
// and never sees WiFi.
func CellOnlyMatrix() Matrix {
	return Matrix{
		{0.5, 0.5, 0},
		{0.25, 0.75, 0},
		{0, 1, 0}, // unreachable; kept stochastic
	}
}

// AlwaysCellMatrix keeps the device permanently on cellular; used by the
// F3/F4 sweeps so budget, not connectivity, is the binding constraint.
func AlwaysCellMatrix() Matrix {
	return Matrix{
		{0, 1, 0},
		{0, 1, 0},
		{0, 1, 0},
	}
}

// Model is a per-user Markov connectivity process.
//
// A Model is NOT safe for concurrent use: it mutates its state and its
// random stream on every Step. Each device owns its model exclusively —
// the simulator and every server shard key one per device with
// NewModelSeeded, so no two devices share a stream.
type Model struct {
	matrix Matrix
	state  State
	rng    sim.Stream
}

// NewModelSeeded builds a model starting in the given state, walking the
// seekable random stream keyed by seed. Two models with the same seed walk
// identical state sequences and models with different seeds are
// independent; core.Engine keys each device's walk as
// sim.StreamSeed(userSeed, sim.StreamNetwork).
func NewModelSeeded(m Matrix, start State, seed int64) (*Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if start != StateOff && start != StateCell && start != StateWifi {
		return nil, fmt.Errorf("network: invalid start state %d", start)
	}
	return &Model{matrix: m, state: start, rng: sim.NewStream(seed)}, nil
}

// State returns the current connectivity state.
func (m *Model) State() State { return m.state }

// Draws returns how many random draws the model has consumed. Together
// with the seed it pins the model's exact position in its random stream,
// which is what snapshot/restore needs for bit-identical recovery.
func (m *Model) Draws() uint64 { return m.rng.Draws() }

// Restore sets the connectivity state and seeks the stream to the given
// draw count, in O(1). It must be called on a model keyed identically to
// the snapshotted one; after Restore the model continues the exact random
// sequence the original would have. Restore never rewinds: a draw count
// behind the model's own means the model has already walked past the
// snapshot, and is refused.
func (m *Model) Restore(state State, draws uint64) error {
	if state != StateOff && state != StateCell && state != StateWifi {
		return fmt.Errorf("network: restore invalid state %d", int(state))
	}
	if draws < m.rng.Draws() {
		return fmt.Errorf("network: restore draws %d behind current %d", draws, m.rng.Draws())
	}
	m.rng.Seek(draws)
	m.state = state
	return nil
}

// StepN advances the chain k rounds and returns the final state,
// bit-identical to k Step calls, which is what the event-driven round loop
// relies on when waking a parked device (DESIGN.md §14). The stream could
// seek past the k draws, but the chain's state after k steps depends on
// each of them, so the steps run one by one; each draw costs a few ns.
//
// richnote:allocfree
func (m *Model) StepN(k int) State {
	for i := 0; i < k; i++ {
		m.Step()
	}
	return m.state
}

// Step advances the chain one round and returns the new state.
func (m *Model) Step() State {
	row := m.matrix[index(m.state)]
	u := m.rng.Float64()
	acc := 0.0
	for to, p := range row {
		acc += p
		if u < acc {
			m.state = State(to + 1)
			return m.state
		}
	}
	// Numerical slack: fall through to the last state with mass.
	for to := len(row) - 1; to >= 0; to-- {
		if row[to] > 0 {
			m.state = State(to + 1)
			break
		}
	}
	return m.state
}

// RoundCapacity describes how many bytes a device may pull this round and
// whether they bill against the cellular data plan.
type RoundCapacity struct {
	// Bytes is the link capacity for the round (0 when offline).
	Bytes int64
	// BillsDataPlan is true on cellular.
	BillsDataPlan bool
}

// Capacity holds per-state link capacities per round.
type Capacity struct {
	// CellBytesPerRound approximates sustained cellular throughput per
	// round; default 150 MB (a few Mbit/s over an hour, well above any
	// plausible plan budget so the plan is the binding constraint).
	CellBytesPerRound int64
	// WifiBytesPerRound defaults to 1.5 GB.
	WifiBytesPerRound int64
}

// DefaultCapacity returns the defaults documented on Capacity.
func DefaultCapacity() Capacity {
	return Capacity{
		CellBytesPerRound: 150 << 20,
		WifiBytesPerRound: 1500 << 20,
	}
}

// For returns the round capacity in the given state.
func (c Capacity) For(s State) RoundCapacity {
	switch s {
	case StateCell:
		return RoundCapacity{Bytes: c.CellBytesPerRound, BillsDataPlan: true}
	case StateWifi:
		return RoundCapacity{Bytes: c.WifiBytesPerRound, BillsDataPlan: false}
	default:
		return RoundCapacity{}
	}
}
