// Package metrics implements the performance metrics of Section V-C:
// delivery ratio, precision and recall against recorded clicks, average
// utility of delivered notifications, download energy and queuing delay —
// plus the per-presentation-level mix that Figures 5(b) and 5(c) stack.
//
// A Collector accumulates per-user counters during a simulation run and
// produces an aggregate Report (metrics averaged across users, as the
// paper reports) as well as per-user slices for the user-category analysis
// of Figure 5(d).
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/richnote/richnote/internal/notif"
)

// userCounters tracks one user's tallies.
type userCounters struct {
	arrived              int
	clickedTotal         int
	delivered            int
	deliveredBytes       int64
	utilitySum           float64
	trueUtilitySum       float64
	clickedAndDelivered  int // recall numerator
	deliveredBeforeClick int // precision numerator
	energyJ              float64
	delayRoundsSum       int
	levelCounts          map[int]int

	// Fault-injection tallies. All zero in a fault-free run.
	transferFailures   int
	retriedDeliveries  int
	degradedDeliveries int
	dropped            int
	wastedEnergyJ      float64
}

// DelayCount is one distinct queuing delay, in whole rounds, and the
// number of deliveries that waited exactly that long.
type DelayCount struct {
	Delay int
	Count int
}

// Collector accumulates simulation outcomes.
type Collector struct {
	users map[notif.UserID]*userCounters
	// delays is the exact queuing-delay distribution: one entry per
	// distinct delay, ascending. Delays are whole rounds, so its length is
	// bounded by the longest delay, not by the number of deliveries.
	delays []DelayCount

	// running mirrors the whole-collector fold incrementally: every event
	// updates it alongside the per-user counters, so the per-round snapshot
	// path reads Running() instead of the O(users) Aggregate(). Integer
	// fields match Aggregate exactly; float sums accumulate in event order
	// rather than Aggregate's sorted-user order, so their low bits may
	// differ — Running is telemetry, Aggregate remains the exact end-of-run
	// fold.
	running Report
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		users:   make(map[notif.UserID]*userCounters),
		running: Report{LevelCounts: make(map[int]int)},
	}
}

func (c *Collector) user(u notif.UserID) *userCounters {
	uc := c.users[u]
	if uc == nil {
		uc = &userCounters{levelCounts: make(map[int]int)}
		c.users[u] = uc
		c.running.Users++
	}
	return uc
}

// addDelay adds n deliveries of the given delay to the sorted
// distribution ds. It allocates only when a new distinct delay appears.
func addDelay(ds []DelayCount, delay, n int) []DelayCount {
	i, found := slices.BinarySearchFunc(ds, delay, func(d DelayCount, v int) int { return cmp.Compare(d.Delay, v) })
	if found {
		ds[i].Count += n
		return ds
	}
	return slices.Insert(ds, i, DelayCount{Delay: delay, Count: n})
}

// delayPercentile returns the p-th percentile (p in [0, 100]) of the
// distribution by nearest rank — the same value the sorted raw samples
// would give. An empty distribution returns 0.
func delayPercentile(ds []DelayCount, p float64) float64 {
	total := 0
	for _, d := range ds {
		total += d.Count
	}
	if total == 0 {
		return 0
	}
	rank := max(int(math.Ceil(p/100*float64(total))), 1)
	cum := 0
	for _, d := range ds {
		cum += d.Count
		if cum >= rank {
			return float64(d.Delay)
		}
	}
	return float64(ds[len(ds)-1].Delay)
}

// OnArrive records a notification entering the broker for a user, with its
// ground-truth click flag.
func (c *Collector) OnArrive(u notif.UserID, clicked bool) {
	uc := c.user(u)
	uc.arrived++
	c.running.Arrived++
	if clicked {
		uc.clickedTotal++
		c.running.ClickedTotal++
	}
}

// OnEnergy charges energy that is not attributable to a single delivery
// (per-round radio ramp/tail overhead) to the user's energy tally.
func (c *Collector) OnEnergy(u notif.UserID, joules float64) {
	c.user(u).energyJ += joules
	c.running.EnergyJ += joules
}

// OnTransferFailure records one failed transfer attempt and the energy the
// radio burned on the partial transfer. The energy counts toward the user's
// total energy tally and is additionally tracked as waste.
func (c *Collector) OnTransferFailure(u notif.UserID, wastedJ float64) {
	uc := c.user(u)
	uc.transferFailures++
	uc.energyJ += wastedJ
	uc.wastedEnergyJ += wastedJ
	c.running.TransferFailures++
	c.running.EnergyJ += wastedJ
	c.running.WastedEnergyJ += wastedJ
}

// OnDrop records an item abandoned after exhausting its retry budget.
func (c *Collector) OnDrop(u notif.UserID) {
	c.user(u).dropped++
	c.running.Dropped++
}

// DeliveryOutcome carries the ground truth needed to score one delivery.
type DeliveryOutcome struct {
	// Clicked is the trace's ground-truth label for the item.
	Clicked bool
	// BeforeClick is true when the delivery round is no later than the
	// recorded click round — the paper's precision counts only these.
	BeforeClick bool
}

// OnDeliver records a delivery and its outcome.
func (c *Collector) OnDeliver(d notif.Delivery, out DeliveryOutcome) {
	uc := c.user(d.Recipient)
	delay := d.QueuingDelayRounds()
	uc.delivered++
	uc.deliveredBytes += d.Size
	uc.utilitySum += d.Utility
	uc.trueUtilitySum += d.TrueUtility
	uc.energyJ += d.EnergyJ
	uc.delayRoundsSum += delay
	c.delays = addDelay(c.delays, delay, 1)
	uc.levelCounts[d.Level]++
	c.running.Delivered++
	c.running.DeliveredBytes += d.Size
	c.running.UtilitySum += d.Utility
	c.running.TrueUtilitySum += d.TrueUtility
	c.running.EnergyJ += d.EnergyJ
	c.running.DelayRoundsSum += delay
	c.running.LevelCounts[d.Level]++
	if d.Retries > 0 {
		uc.retriedDeliveries++
		c.running.RetriedDeliveries++
	}
	if d.Degraded {
		uc.degradedDeliveries++
		c.running.DegradedDeliveries++
	}
	if out.Clicked {
		uc.clickedAndDelivered++
		c.running.ClickedAndDelivered++
		if out.BeforeClick {
			uc.deliveredBeforeClick++
			c.running.DeliveredBeforeClick++
		}
	}
}

// Running returns the incrementally maintained aggregate. Integer tallies
// and the delay percentiles are identical to Aggregate; float sums are
// accumulated in event order (Aggregate folds per sorted user), so treat
// it as the per-round telemetry view and Aggregate as the exact
// end-of-run report. O(distinct delays) per call.
func (c *Collector) Running() Report {
	r := c.running
	r.LevelCounts = make(map[int]int, len(c.running.LevelCounts))
	for lvl, n := range c.running.LevelCounts {
		r.LevelCounts[lvl] = n
	}
	r.DelayP50Rounds = delayPercentile(c.delays, 50)
	r.DelayP95Rounds = delayPercentile(c.delays, 95)
	return r
}

// Report is the aggregate outcome of a run.
type Report struct {
	Users          int
	Arrived        int
	ClickedTotal   int
	Delivered      int
	DeliveredBytes int64
	UtilitySum     float64
	// TrueUtilitySum scores deliveries against ground-truth interest; zero
	// when the workload carries no ground truth.
	TrueUtilitySum       float64
	ClickedAndDelivered  int
	DeliveredBeforeClick int
	EnergyJ              float64
	DelayRoundsSum       int
	// LevelCounts maps presentation level to delivery count; level 1 is
	// metadata-only.
	LevelCounts map[int]int

	// Fault-injection tallies: failed transfer attempts, deliveries that
	// needed at least one retry, deliveries degraded below the scheduler's
	// chosen level, items dropped after MaxAttempts, and the joules burned
	// on transfers that did not complete. All zero in a fault-free run.
	TransferFailures   int
	RetriedDeliveries  int
	DegradedDeliveries int
	Dropped            int
	WastedEnergyJ      float64

	// DelayP50Rounds and DelayP95Rounds summarize the queuing-delay
	// distribution across deliveries.
	DelayP50Rounds float64
	DelayP95Rounds float64
}

// sortedUsers returns the collector's user IDs in ascending order, so
// floating-point aggregation is deterministic regardless of map iteration
// order.
func (c *Collector) sortedUsers() []notif.UserID {
	ids := make([]notif.UserID, 0, len(c.users))
	for u := range c.users {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Merge folds another collector's per-user counters into this one. Users
// must not overlap across the merged collectors (each simulation worker
// owns a disjoint user shard); overlapping users have their counters
// summed.
func (c *Collector) Merge(o *Collector) {
	for _, d := range o.delays {
		c.delays = addDelay(c.delays, d.Delay, d.Count)
	}
	for _, u := range o.sortedUsers() {
		ouc := o.users[u]
		uc := c.user(u)
		uc.arrived += ouc.arrived
		uc.clickedTotal += ouc.clickedTotal
		uc.delivered += ouc.delivered
		uc.deliveredBytes += ouc.deliveredBytes
		uc.utilitySum += ouc.utilitySum
		uc.trueUtilitySum += ouc.trueUtilitySum
		uc.clickedAndDelivered += ouc.clickedAndDelivered
		uc.deliveredBeforeClick += ouc.deliveredBeforeClick
		uc.energyJ += ouc.energyJ
		uc.delayRoundsSum += ouc.delayRoundsSum
		uc.transferFailures += ouc.transferFailures
		uc.retriedDeliveries += ouc.retriedDeliveries
		uc.degradedDeliveries += ouc.degradedDeliveries
		uc.dropped += ouc.dropped
		uc.wastedEnergyJ += ouc.wastedEnergyJ
		for lvl, n := range ouc.levelCounts {
			uc.levelCounts[lvl] += n
		}
	}
	c.recomputeRunning()
}

// recomputeRunning rebuilds the running aggregate from the ground-truth
// per-user counters. Called after bulk mutations (Merge, RestoreState)
// where maintaining deltas would be error-prone; the O(users) cost is
// paid once per merge/recovery, never per round. The rebuilt float sums
// follow Aggregate's sorted-user order rather than the live event order —
// an allowed divergence, since Running is telemetry (its integer fields
// are what snapshots compare).
func (c *Collector) recomputeRunning() { c.running = c.Aggregate() }

// Aggregate folds all user counters into a Report.
func (c *Collector) Aggregate() Report {
	r := Report{LevelCounts: make(map[int]int)}
	r.Users = len(c.users)
	r.DelayP50Rounds = delayPercentile(c.delays, 50)
	r.DelayP95Rounds = delayPercentile(c.delays, 95)
	for _, u := range c.sortedUsers() {
		uc := c.users[u]
		r.Arrived += uc.arrived
		r.ClickedTotal += uc.clickedTotal
		r.Delivered += uc.delivered
		r.DeliveredBytes += uc.deliveredBytes
		r.UtilitySum += uc.utilitySum
		r.TrueUtilitySum += uc.trueUtilitySum
		r.ClickedAndDelivered += uc.clickedAndDelivered
		r.DeliveredBeforeClick += uc.deliveredBeforeClick
		r.EnergyJ += uc.energyJ
		r.DelayRoundsSum += uc.delayRoundsSum
		r.TransferFailures += uc.transferFailures
		r.RetriedDeliveries += uc.retriedDeliveries
		r.DegradedDeliveries += uc.degradedDeliveries
		r.Dropped += uc.dropped
		r.WastedEnergyJ += uc.wastedEnergyJ
		for lvl, n := range uc.levelCounts {
			r.LevelCounts[lvl] += n
		}
	}
	return r
}

// DeliveryRatio is the fraction of arrived notifications delivered.
func (r Report) DeliveryRatio() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Arrived)
}

// Precision is the fraction of deliveries that were clicked on no later
// than their recorded click time.
func (r Report) Precision() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.DeliveredBeforeClick) / float64(r.Delivered)
}

// Recall is the fraction of clicked notifications that were delivered.
func (r Report) Recall() float64 {
	if r.ClickedTotal == 0 {
		return 0
	}
	return float64(r.ClickedAndDelivered) / float64(r.ClickedTotal)
}

// AvgUtility is the mean combined utility per delivered notification.
func (r Report) AvgUtility() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return r.UtilitySum / float64(r.Delivered)
}

// AvgDelayRounds is the mean queuing delay in rounds.
func (r Report) AvgDelayRounds() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.DelayRoundsSum) / float64(r.Delivered)
}

// LevelShare returns the fraction of deliveries at each level, for the
// stacked presentation-mix figures.
func (r Report) LevelShare() map[int]float64 {
	out := make(map[int]float64, len(r.LevelCounts))
	if r.Delivered == 0 {
		return out
	}
	for lvl, n := range r.LevelCounts {
		out[lvl] = float64(n) / float64(r.Delivered)
	}
	return out
}

// String summarizes the headline metrics.
func (r Report) String() string {
	return fmt.Sprintf(
		"users=%d arrived=%d delivered=%d (ratio %.3f) bytes=%d utility=%.1f precision=%.3f recall=%.3f energy=%.0fJ delay=%.2f rounds",
		r.Users, r.Arrived, r.Delivered, r.DeliveryRatio(), r.DeliveredBytes,
		r.UtilitySum, r.Precision(), r.Recall(), r.EnergyJ, r.AvgDelayRounds())
}

// UserBucket is one user-volume category of Figure 5(d).
type UserBucket struct {
	// MinItems..MaxItems bound the arrived-notification count of users in
	// the bucket (MaxItems 0 = unbounded).
	MinItems, MaxItems int
	Users              int
	MeanUtility        float64
	StdDevUtility      float64
}

// BucketByVolume groups users by arrived-item count and reports the mean
// and standard deviation of per-user total delivered utility per bucket.
// bounds are bucket upper edges, e.g. {50, 100, 200} produces buckets
// [0,50], (50,100], (100,200], (200,inf).
func (c *Collector) BucketByVolume(bounds []int) []UserBucket {
	sorted := append([]int(nil), bounds...)
	sort.Ints(sorted)
	buckets := make([]UserBucket, len(sorted)+1)
	for i := range buckets {
		if i == 0 {
			buckets[i].MinItems = 0
		} else {
			buckets[i].MinItems = sorted[i-1] + 1
		}
		if i < len(sorted) {
			buckets[i].MaxItems = sorted[i]
		}
	}
	sums := make([]float64, len(buckets))
	sqs := make([]float64, len(buckets))
	for _, u := range c.sortedUsers() {
		uc := c.users[u]
		bi := len(sorted)
		for i, edge := range sorted {
			if uc.arrived <= edge {
				bi = i
				break
			}
		}
		buckets[bi].Users++
		sums[bi] += uc.utilitySum
		sqs[bi] += uc.utilitySum * uc.utilitySum
	}
	for i := range buckets {
		if buckets[i].Users == 0 {
			continue
		}
		n := float64(buckets[i].Users)
		mean := sums[i] / n
		buckets[i].MeanUtility = mean
		variance := sqs[i]/n - mean*mean
		if variance > 0 {
			buckets[i].StdDevUtility = math.Sqrt(variance)
		}
	}
	return buckets
}

// Table renders rows of (label, values...) as an aligned text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders rows as comma-separated values with a header line.
func CSV(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteString("\n")
	for _, row := range rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}
