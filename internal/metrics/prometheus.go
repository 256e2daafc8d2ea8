package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for the Section V metrics.
// The serving runtime's /metrics endpoint and richnote-bench's -prom flag
// both render through WriteExposition; Collector.WriteTo is the
// convenience io.WriterTo over a live collector.

// DefaultDelayBucketBounds are the cumulative histogram upper bounds (in
// rounds) used for the queuing-delay exposition. Chosen to resolve the
// paper's typical delays (a few rounds) while keeping a tail bucket for
// budget-starved configurations.
var DefaultDelayBucketBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}

// Bucket is one cumulative histogram bucket: the count of samples less
// than or equal to UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// DelayBuckets returns the cumulative queuing-delay histogram at
// DefaultDelayBucketBounds, Prometheus-style: each bucket counts the
// deliveries whose delay is at most its bound. Deliveries above the last
// bound appear only in the implicit +Inf bucket (Report.Delivered).
func (c *Collector) DelayBuckets() []Bucket {
	out := make([]Bucket, len(DefaultDelayBucketBounds))
	cum, i := uint64(0), 0
	for j, b := range DefaultDelayBucketBounds {
		for ; i < len(c.delays) && float64(c.delays[i].Delay) <= b; i++ {
			cum += uint64(c.delays[i].Count)
		}
		out[j] = Bucket{UpperBound: b, Count: cum}
	}
	return out
}

// MergeBuckets sums two cumulative bucket sets with identical bounds.
// Mismatched bounds return an error rather than silently misaligned
// counts.
func MergeBuckets(a, b []Bucket) ([]Bucket, error) {
	if len(a) == 0 {
		return append([]Bucket(nil), b...), nil
	}
	if len(b) == 0 {
		return append([]Bucket(nil), a...), nil
	}
	if len(a) != len(b) {
		return nil, fmt.Errorf("metrics: bucket count mismatch %d vs %d", len(a), len(b))
	}
	out := make([]Bucket, len(a))
	for i := range a {
		if a[i].UpperBound != b[i].UpperBound {
			return nil, fmt.Errorf("metrics: bucket bound mismatch %g vs %g", a[i].UpperBound, b[i].UpperBound)
		}
		out[i] = Bucket{UpperBound: a[i].UpperBound, Count: a[i].Count + b[i].Count}
	}
	return out, nil
}

// Merge sums another report into r: counters add, the level mix adds, and
// the delay percentiles keep r's values (percentiles do not compose; the
// caller that needs merged percentiles merges collectors instead). Used to
// fold per-shard reports into one service-level exposition.
func (r *Report) Merge(o Report) {
	r.Users += o.Users
	r.Arrived += o.Arrived
	r.ClickedTotal += o.ClickedTotal
	r.Delivered += o.Delivered
	r.DeliveredBytes += o.DeliveredBytes
	r.UtilitySum += o.UtilitySum
	r.TrueUtilitySum += o.TrueUtilitySum
	r.ClickedAndDelivered += o.ClickedAndDelivered
	r.DeliveredBeforeClick += o.DeliveredBeforeClick
	r.EnergyJ += o.EnergyJ
	r.DelayRoundsSum += o.DelayRoundsSum
	r.TransferFailures += o.TransferFailures
	r.RetriedDeliveries += o.RetriedDeliveries
	r.DegradedDeliveries += o.DegradedDeliveries
	r.Dropped += o.Dropped
	r.WastedEnergyJ += o.WastedEnergyJ
	if r.LevelCounts == nil && len(o.LevelCounts) > 0 {
		r.LevelCounts = make(map[int]int, len(o.LevelCounts))
	}
	for lvl, n := range o.LevelCounts {
		r.LevelCounts[lvl] += n
	}
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip decimal, with +Inf spelled "+Inf".
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) printf(format string, args ...any) {
	if cw.err != nil {
		return
	}
	n, err := fmt.Fprintf(cw.w, format, args...)
	cw.n += int64(n)
	cw.err = err
}

// WriteExposition writes the report and delay buckets as Prometheus text
// format. Counters carry the richnote_ prefix; the delay histogram uses
// the report's DelayRoundsSum/Delivered as its _sum/_count so the
// exposition stays consistent when reports from several shards are merged.
func WriteExposition(w io.Writer, r Report, delay []Bucket) (int64, error) {
	cw := &countingWriter{w: w}
	counter := func(name, help string, value string) {
		cw.printf("# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, value)
	}
	gauge := func(name, help string, value float64) {
		cw.printf("# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(value))
	}

	counter("richnote_notifications_arrived_total",
		"Notifications that entered the scheduling queues.", strconv.Itoa(r.Arrived))
	counter("richnote_notifications_delivered_total",
		"Notifications delivered at any presentation level.", strconv.Itoa(r.Delivered))
	counter("richnote_notifications_clicked_total",
		"Arrived notifications carrying a ground-truth click.", strconv.Itoa(r.ClickedTotal))
	counter("richnote_delivered_bytes_total",
		"Bytes of delivered presentations.", strconv.FormatInt(r.DeliveredBytes, 10))
	counter("richnote_energy_joules_total",
		"Device energy spent on deliveries and radio overhead.", formatFloat(r.EnergyJ))
	counter("richnote_utility_sum_total",
		"Sum of combined utility U(i,j) over deliveries.", formatFloat(r.UtilitySum))
	counter("richnote_transfer_failures_total",
		"Transfer attempts that failed (outright loss or mid-transfer disconnect).", strconv.Itoa(r.TransferFailures))
	counter("richnote_retried_deliveries_total",
		"Deliveries that needed at least one retry.", strconv.Itoa(r.RetriedDeliveries))
	counter("richnote_degraded_deliveries_total",
		"Deliveries degraded below the scheduler's chosen presentation level.", strconv.Itoa(r.DegradedDeliveries))
	counter("richnote_dropped_total",
		"Items abandoned after exhausting their retry budget.", strconv.Itoa(r.Dropped))
	counter("richnote_wasted_energy_joules_total",
		"Energy burned on transfers that did not complete.", formatFloat(r.WastedEnergyJ))

	// Per-level delivery mix as a labeled counter, levels ascending.
	levels := make([]int, 0, len(r.LevelCounts))
	for lvl := range r.LevelCounts {
		levels = append(levels, lvl)
	}
	sort.Ints(levels)
	cw.printf("# HELP richnote_deliveries_by_level_total Deliveries per presentation level.\n")
	cw.printf("# TYPE richnote_deliveries_by_level_total counter\n")
	for _, lvl := range levels {
		cw.printf("richnote_deliveries_by_level_total{level=%q} %d\n", strconv.Itoa(lvl), r.LevelCounts[lvl])
	}

	gauge("richnote_users", "Users with recorded activity.", float64(r.Users))
	gauge("richnote_delivery_ratio", "Delivered / arrived notifications.", r.DeliveryRatio())
	gauge("richnote_precision", "Deliveries clicked no later than their click round / deliveries.", r.Precision())
	gauge("richnote_recall", "Clicked notifications delivered / clicked notifications.", r.Recall())

	cw.printf("# HELP richnote_delivery_delay_rounds Queuing delay per delivery, in rounds.\n")
	cw.printf("# TYPE richnote_delivery_delay_rounds histogram\n")
	for _, b := range delay {
		cw.printf("richnote_delivery_delay_rounds_bucket{le=%q} %d\n", formatFloat(b.UpperBound), b.Count)
	}
	cw.printf("richnote_delivery_delay_rounds_bucket{le=\"+Inf\"} %d\n", r.Delivered)
	cw.printf("richnote_delivery_delay_rounds_sum %d\n", r.DelayRoundsSum)
	cw.printf("richnote_delivery_delay_rounds_count %d\n", r.Delivered)
	return cw.n, cw.err
}

// WriteTo implements io.WriterTo: it snapshots the collector (aggregate
// report plus DelayBuckets) and writes the Prometheus exposition. The
// collector must not be mutated concurrently; the serving runtime
// snapshots per-shard reports on the shard goroutine instead of calling
// this across goroutines.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	return WriteExposition(w, c.Aggregate(), c.DelayBuckets())
}

// Exposition renders WriteTo into a string, for tests and CLI printing.
func (c *Collector) Exposition() string {
	var b strings.Builder
	_, _ = c.WriteTo(&b) // strings.Builder cannot fail
	return b.String()
}
