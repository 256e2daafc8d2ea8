// Package lyapunov implements the Lyapunov-drift control machinery of
// RichNote's scheduler (Section IV of the paper).
//
// Two queues are tracked per user:
//
//   - Q(t): the scheduling-queue backlog in MB (DESIGN.md §6.3: backlogs
//     are measured in MB and energy in J, which keeps the Q² and (P−κ)²
//     terms of the Lyapunov function on comparable scales). Every
//     presentation of a queued item counts toward the backlog; delivering
//     an item at any level removes all of its presentations, so a delivery
//     of item i relieves Q by s(i) = sum_j s(i, j).
//   - P(t): a virtual queue tracking the energy budget. The paper moves the
//     energy constraint (2c) into the objective by keeping P close to a
//     target κ: replenishment e(t) is added only while P <= κ, and each
//     delivery drains P by its energy cost ρ(i, j).
//
// The Lyapunov function is L(t) = ½(Q²(t) + (P(t) − κ)²) and drift
// minimization with utility reward V·U yields the adjusted utility
//
//	Ua(i, j) = Q(t)·s(i) + (P(t) − κ)·ρ(i, j) + V·U(i, j)
//
// which the per-round MCKP maximizes under the data budget B(t).
package lyapunov

import (
	"errors"
	"fmt"
	"math"
)

// Config holds the control parameters.
type Config struct {
	// V is the utility weight: larger V favors utility over queue backlog.
	// The paper uses V = 1000.
	V float64
	// Kappa is the per-round energy target in joules (paper: 3 kJ/hour).
	Kappa float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.V <= 0 {
		return fmt.Errorf("lyapunov: V must be positive, got %f", c.V)
	}
	if c.Kappa <= 0 {
		return fmt.Errorf("lyapunov: kappa must be positive, got %f", c.Kappa)
	}
	return nil
}

// ErrNegativeAmount is returned when a queue mutation receives a negative
// MB or joule amount.
var ErrNegativeAmount = errors.New("lyapunov: negative amount")

// Controller tracks the per-user queue states and computes adjusted
// utilities. It is not safe for concurrent use; the scheduler owns one
// controller per user and drives it from the simulation loop.
type Controller struct {
	cfg Config

	q float64 // scheduling-queue backlog, MB
	p float64 // virtual energy queue, joules

	// Telemetry.
	maxQ        float64
	sumQ        float64
	rounds      int
	driftSum    float64
	lastL       float64
	initialized bool
}

// New returns a controller with empty queues.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Q returns the current scheduling-queue backlog in MB.
func (c *Controller) Q() float64 { return c.q }

// P returns the current virtual energy queue in joules.
func (c *Controller) P() float64 { return c.p }

// Config returns the control parameters.
func (c *Controller) Config() Config { return c.cfg }

// Lyapunov returns L(t) = ½(Q² + (P−κ)²).
func (c *Controller) Lyapunov() float64 {
	dp := c.p - c.cfg.Kappa
	return 0.5 * (c.q*c.q + dp*dp)
}

// Adjusted returns Ua(i, j) for an item with total presentation size s(i)
// (MB across all levels), per-level energy cost ρ(i, j) (joules) and
// combined utility U(i, j).
//
// The Q·s(i) term rewards relieving the backlog (it is identical across a
// given item's levels, so it biases which items are selected, not which
// level). The (P−κ)·ρ term penalizes energy-hungry levels when the energy
// queue is below target and rewards spending when above it.
func (c *Controller) Adjusted(itemTotalSize, energy, utility float64) float64 {
	return c.q*itemTotalSize + (c.p-c.cfg.Kappa)*energy + c.cfg.V*utility
}

// OnArrive adds ν(t) MB of new presentations to the scheduling queue.
func (c *Controller) OnArrive(mb float64) error {
	if mb < 0 {
		return fmt.Errorf("%w: arrive %f MB", ErrNegativeAmount, mb)
	}
	c.q += mb
	return nil
}

// OnDeliver applies a delivery: the item's total presentation size leaves
// Q and the spent energy leaves P. Both queues floor at zero, matching the
// [·]+ in the paper's queue-update equations (4) and (5).
func (c *Controller) OnDeliver(itemTotalSize, energy float64) error {
	if itemTotalSize < 0 || energy < 0 {
		return fmt.Errorf("%w: deliver size %f energy %f", ErrNegativeAmount, itemTotalSize, energy)
	}
	c.q -= itemTotalSize
	if c.q < 0 {
		c.q = 0
	}
	c.p -= energy
	if c.p < 0 {
		c.p = 0
	}
	return nil
}

// OnTransferFailure applies a failed delivery attempt: the energy actually
// burned (partial bytes plus radio ramp) leaves P, but Q is untouched — the
// item is still queued, so its backlog contribution stands and the data-plan
// deduction is refunded by the scheduler. P floors at zero like OnDeliver.
func (c *Controller) OnTransferFailure(energy float64) error {
	if energy < 0 {
		return fmt.Errorf("%w: transfer failure energy %f", ErrNegativeAmount, energy)
	}
	c.p -= energy
	if c.p < 0 {
		c.p = 0
	}
	return nil
}

// OnDrop removes an abandoned item's total presentation size from Q without
// touching P: giving up after MaxAttempts relieves the backlog exactly as a
// delivery would, but no transfer happened so no energy is drained beyond
// what the failed attempts already charged via OnTransferFailure.
func (c *Controller) OnDrop(itemTotalSize float64) error {
	if itemTotalSize < 0 {
		return fmt.Errorf("%w: drop size %f", ErrNegativeAmount, itemTotalSize)
	}
	c.q -= itemTotalSize
	if c.q < 0 {
		c.q = 0
	}
	return nil
}

// Replenish adds e(t) joules to the virtual energy queue, but only while P
// is at or below the target κ (Algorithm 2, step 2). It returns the amount
// actually credited.
func (c *Controller) Replenish(energy float64) (float64, error) {
	if energy < 0 {
		return 0, fmt.Errorf("%w: replenish %f", ErrNegativeAmount, energy)
	}
	if c.p > c.cfg.Kappa {
		return 0, nil
	}
	c.p += energy
	return energy, nil
}

// EndRound records end-of-round telemetry: average/max backlog and the
// empirical Lyapunov drift Δ(L). Call once per round after all queue
// mutations.
func (c *Controller) EndRound() {
	l := c.Lyapunov()
	if c.initialized {
		c.driftSum += l - c.lastL
	}
	c.lastL = l
	c.initialized = true
	c.rounds++
	c.sumQ += c.q
	if c.q > c.maxQ {
		c.maxQ = c.q
	}
}

// Quiescent reports whether an idle round (no arrivals, no deliveries)
// leaves the controller unchanged except for round telemetry. That holds
// exactly when the backlog is zero (nothing accrues to sumQ or drift) and
// the virtual energy queue sits strictly above κ, where Replenish is a
// no-op by Algorithm 2's step-2 gate — so Q and P are both fixed points,
// L(t) is constant, and the per-round drift term is +0.0. The lastL
// check guards the closed form in FastForward: after any EndRound it is
// tautologically true, so a quiescent controller stays quiescent until
// an arrival perturbs Q. Shards park a device only while its controller
// is quiescent (DESIGN.md §14).
func (c *Controller) Quiescent() bool {
	return c.q == 0 && c.p > c.cfg.Kappa && c.initialized && c.lastL == c.Lyapunov()
}

// FastForward advances the controller across k idle rounds in one step.
// For a quiescent controller the per-round updates collapse to a closed
// form: Replenish is gated off (P > κ), sumQ accrues k·0, maxQ cannot
// grow, and driftSum accrues k·(L−lastL) = k·(+0.0) — so only the round
// counter moves. Adding +0.0 to a float is the identity unless the
// target is -0.0, and driftSum can never be -0.0 (each drift term is
// either nonzero or x−x = +0.0), so skipping the additions entirely is
// bit-identical to k EndRound calls. Non-quiescent controllers (only
// reachable if a caller ignores the parking contract) replay EndRound
// k times, which is still exact provided P > κ keeps Replenish silent.
//
// richnote:allocfree
func (c *Controller) FastForward(k int) {
	if k <= 0 {
		return
	}
	if c.Quiescent() {
		c.rounds += k
		return
	}
	for i := 0; i < k; i++ {
		c.EndRound()
	}
}

// State is the complete mutable state of a Controller, exported for
// snapshot/restore. Config is excluded: restore happens into a controller
// rebuilt from the same configuration.
type State struct {
	Q           float64
	P           float64
	MaxQ        float64
	SumQ        float64
	Rounds      int
	DriftSum    float64
	LastL       float64
	Initialized bool
}

// ExportState captures the controller's mutable state.
func (c *Controller) ExportState() State {
	return State{
		Q:           c.q,
		P:           c.p,
		MaxQ:        c.maxQ,
		SumQ:        c.sumQ,
		Rounds:      c.rounds,
		DriftSum:    c.driftSum,
		LastL:       c.lastL,
		Initialized: c.initialized,
	}
}

// RestoreState overwrites the controller's mutable state with a previously
// exported snapshot. The controller must have been built with the same
// Config as the exporting one for the restored trajectory to match.
func (c *Controller) RestoreState(s State) error {
	// A NaN or infinite queue would poison every adjusted utility the
	// controller computes from then on, so only finite, non-negative
	// queues restore.
	if !(s.Q >= 0 && s.Q <= math.MaxFloat64) || !(s.P >= 0 && s.P <= math.MaxFloat64) {
		return fmt.Errorf("lyapunov: restore queues q=%f p=%f, want finite and non-negative", s.Q, s.P)
	}
	if s.Rounds < 0 {
		return fmt.Errorf("lyapunov: restore negative rounds %d", s.Rounds)
	}
	c.q = s.Q
	c.p = s.P
	c.maxQ = s.MaxQ
	c.sumQ = s.SumQ
	c.rounds = s.Rounds
	c.driftSum = s.DriftSum
	c.lastL = s.LastL
	c.initialized = s.Initialized
	return nil
}

// Stats is a snapshot of controller telemetry.
type Stats struct {
	Rounds    int
	AvgQ      float64 // average backlog in MB over rounds
	MaxQ      float64 // peak backlog in MB
	AvgDrift  float64 // average empirical one-round Lyapunov drift
	FinalQ    float64
	FinalP    float64
	FinalLyap float64
}

// Add folds another controller's snapshot into s, aggregating across
// users: queue totals (AvgQ, AvgDrift, FinalQ, FinalP, FinalLyap) sum,
// peaks (MaxQ) take the max, and Rounds takes the max (a shard steps its
// users in lockstep). The live server folds every device's snapshot into
// one Stats per shard to expose aggregate Q(t)/P(t) gauges; after adding
// n users, AvgQ reads as the shard's total average backlog in MB.
func (s *Stats) Add(o Stats) {
	if o.Rounds > s.Rounds {
		s.Rounds = o.Rounds
	}
	if o.MaxQ > s.MaxQ {
		s.MaxQ = o.MaxQ
	}
	s.AvgQ += o.AvgQ
	s.AvgDrift += o.AvgDrift
	s.FinalQ += o.FinalQ
	s.FinalP += o.FinalP
	s.FinalLyap += o.FinalLyap
}

// Stats returns accumulated telemetry.
func (c *Controller) Stats() Stats {
	s := Stats{
		Rounds:    c.rounds,
		MaxQ:      c.maxQ,
		FinalQ:    c.q,
		FinalP:    c.p,
		FinalLyap: c.Lyapunov(),
	}
	if c.rounds > 0 {
		s.AvgQ = c.sumQ / float64(c.rounds)
	}
	if c.rounds > 1 {
		s.AvgDrift = c.driftSum / float64(c.rounds-1)
	}
	return s
}
