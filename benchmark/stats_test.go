package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {0, 1}, {100, 100}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("p%g of 1..100 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// A percentile is reported only with ten samples beyond it: 800 ticks
// carry a p95 (40 beyond) but not a p99 (8 beyond).
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{800, 95, 40}, {800, 99, 8}, {150_000, 99, 1500}, {200, 95, 10}, {199, 95, 9}, {10_000, 99.9, 10}} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestTailMarksThinTailsInvalid(t *testing.T) {
	r := &result{Metrics: map[string]metric{}, Detail: map[string]float64{}}
	r.tail("tick_p95_ms", make([]float64, 300), 95, false)
	if len(r.Invalid) != 0 {
		t.Fatalf("300 samples carry a p95: %v", r.Invalid)
	}
	r.tail("tick_p95_ms", make([]float64, 150), 95, false)
	if len(r.Invalid) != 1 {
		t.Fatalf("150 samples leave 7 beyond p95; want the run marked invalid, got %v", r.Invalid)
	}
}

// The acceptance rule for the benchmark is written with Python's
// statistics.quantiles(v, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 2, 38, 23, 38, 23, 21})
	if q1 != 10 || q3 != 38 {
		t.Errorf("quartiles = %g, %g, want 10, 38", q1, q3)
	}
	if got := spreadOf([]float64{5}); got != 0 {
		t.Errorf("a single run has no spread, got %g", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %g", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
	// Twenty probes, one stalled: the stall does not move the trimmed mean.
	v := []float64{900}
	for i := 1; i < 20; i++ {
		v = append(v, float64(i))
	}
	if got := trimmedMean(v); got != 10.5 {
		t.Errorf("trimmedMean = %g, want 10.5 (3..18)", got)
	}
	if got := trimmedMean([]float64{4, 8}); got != 6 {
		t.Errorf("trimmedMean of two = %g, want their mean", got)
	}
}

func TestWindows(t *testing.T) {
	// Just under 3 s of 10,000 requests per second: five whole half-seconds,
	// six times 5,000 requests; every sample lands in one of five windows.
	var st loopStats
	for i := 0; i < 30_000; i++ {
		st.at = append(st.at, 100+float64(i)/10_000)
		st.lat = append(st.lat, 1)
	}
	wins, length := st.windows()
	if len(wins) != 5 || math.Abs(length-0.6) > 0.01 {
		t.Fatalf("%d windows of %g s, want 5 of 0.6 s", len(wins), length)
	}
	total := 0
	for _, w := range wins {
		total += len(w)
	}
	if total != 30_000 {
		t.Errorf("windows hold %d samples, want all 30000", total)
	}
	// Too few requests for two windows: the phase is one.
	st.at, st.lat = st.at[:6000], st.lat[:6000]
	if wins, _ := st.windows(); len(wins) != 1 {
		t.Errorf("%d windows for 6000 samples, want 1", len(wins))
	}
}

const page = `# HELP richnote_notifications_arrived_total x
# TYPE richnote_notifications_arrived_total counter
richnote_notifications_arrived_total 41
richnote_shard_users{shard="0"} 10
richnote_shard_users{shard="1"} 30
richnote_shard_users_total 99
lat_bucket{le="0.001"} 50
lat_bucket{le="0.01"} 90
lat_bucket{le="+Inf"} 100
`

func TestExposition(t *testing.T) {
	e := parseExposition([]byte(page))
	if got := e.sum("richnote_notifications_arrived_total"); got != 41 {
		t.Errorf("arrived = %g", got)
	}
	// A name is not a prefix match: richnote_shard_users_total is another metric.
	if got := e.sum("richnote_shard_users"); got != 40 {
		t.Errorf("sum over shards = %g, want 40", got)
	}
	if got := e.max("richnote_shard_users"); got != 30 {
		t.Errorf("max over shards = %g, want 30", got)
	}
	if got := e.histogramQuantile("lat", 0.5); got != 0.001 {
		t.Errorf("p50 = %g, want 0.001", got)
	}
	if got := e.histogramQuantile("lat", 0.7); math.Abs(got-0.0055) > 1e-9 {
		t.Errorf("p70 = %g, want 0.0055 (half way through the second bucket)", got)
	}
	other := parseExposition([]byte("richnote_notifications_arrived_total 9\n"))
	e.merge(other)
	if got := e.sum("richnote_notifications_arrived_total"); got != 50 {
		t.Errorf("merged arrived = %g, want 50", got)
	}
}
