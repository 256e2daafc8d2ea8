package metrics

import (
	"strconv"
	"strings"
	"testing"

	"github.com/richnote/richnote/internal/notif"
)

func expoCollector() *Collector {
	c := NewCollector()
	c.OnArrive(1, true)
	c.OnArrive(1, false)
	c.OnArrive(2, true)
	c.OnDeliver(notif.Delivery{
		Recipient: 1, Level: 3, Size: 1000, Utility: 0.5, EnergyJ: 2,
		ArrivedRound: 0, DeliveredRound: 2,
	}, DeliveryOutcome{Clicked: true, BeforeClick: true})
	c.OnDeliver(notif.Delivery{
		Recipient: 2, Level: 1, Size: 200, Utility: 0.1, EnergyJ: 1,
		ArrivedRound: 1, DeliveredRound: 1,
	}, DeliveryOutcome{Clicked: true, BeforeClick: false})
	return c
}

func TestExpositionCountersAndGauges(t *testing.T) {
	out := expoCollector().Exposition()
	for _, want := range []string{
		"richnote_notifications_arrived_total 3",
		"richnote_notifications_delivered_total 2",
		"richnote_notifications_clicked_total 2",
		"richnote_delivered_bytes_total 1200",
		"richnote_energy_joules_total 3",
		`richnote_deliveries_by_level_total{level="1"} 1`,
		`richnote_deliveries_by_level_total{level="3"} 1`,
		"richnote_users 2",
		"# TYPE richnote_delivery_ratio gauge",
		"richnote_precision 0.5",
		"richnote_recall 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Delivery ratio 2/3 renders as a shortest float.
	if !strings.Contains(out, "richnote_delivery_ratio 0.666666") {
		t.Errorf("exposition missing delivery ratio\n%s", out)
	}
}

func TestExpositionDelayHistogram(t *testing.T) {
	out := expoCollector().Exposition()
	// Delays recorded: 2 rounds and 0 rounds.
	for _, want := range []string{
		`richnote_delivery_delay_rounds_bucket{le="0"} 1`,
		`richnote_delivery_delay_rounds_bucket{le="1"} 1`,
		`richnote_delivery_delay_rounds_bucket{le="2"} 2`,
		`richnote_delivery_delay_rounds_bucket{le="128"} 2`,
		`richnote_delivery_delay_rounds_bucket{le="+Inf"} 2`,
		"richnote_delivery_delay_rounds_sum 2",
		"richnote_delivery_delay_rounds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets must be cumulative: each le bound's count is non-decreasing.
	var prev uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "richnote_delivery_delay_rounds_bucket") {
			continue
		}
		n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
}

func TestCumulativeBuckets(t *testing.T) {
	c := NewCollector()
	for _, d := range []int{0, 1, 1, 3, 10, 200} {
		c.OnDeliver(notif.Delivery{Recipient: 1, Level: 1, DeliveredRound: d}, DeliveryOutcome{})
	}
	// Bounds 0 1 2 4 8 16 32 64 128; 200 lies only in +Inf.
	counts := []uint64{1, 3, 3, 4, 4, 5, 5, 5, 5}
	got := c.DelayBuckets()
	if len(got) != len(counts) {
		t.Fatalf("got %d buckets, want %d", len(got), len(counts))
	}
	for i, n := range counts {
		if want := (Bucket{DefaultDelayBucketBounds[i], n}); got[i] != want {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestMergeBuckets(t *testing.T) {
	a := []Bucket{{1, 2}, {2, 5}}
	b := []Bucket{{1, 1}, {2, 1}}
	got, err := MergeBuckets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != (Bucket{1, 3}) || got[1] != (Bucket{2, 6}) {
		t.Fatalf("merged = %+v", got)
	}
	if _, err := MergeBuckets(a, []Bucket{{9, 1}, {10, 1}}); err == nil {
		t.Fatal("expected bound-mismatch error")
	}
	if _, err := MergeBuckets(a, []Bucket{{1, 1}}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if got, err := MergeBuckets(nil, b); err != nil || len(got) != 2 {
		t.Fatalf("empty-side merge = %+v, %v", got, err)
	}
}

func TestReportMerge(t *testing.T) {
	c1 := NewCollector()
	c1.OnArrive(1, true)
	c1.OnDeliver(notif.Delivery{Recipient: 1, Level: 2, Size: 10, Utility: 0.4, DeliveredRound: 1}, DeliveryOutcome{Clicked: true, BeforeClick: true})
	c2 := NewCollector()
	c2.OnArrive(2, false)
	c2.OnDeliver(notif.Delivery{Recipient: 2, Level: 2, Size: 20, Utility: 0.2}, DeliveryOutcome{})

	r := c1.Aggregate()
	r.Merge(c2.Aggregate())

	// The merged report must match a collector-level merge on every
	// additive field.
	c1.Merge(c2)
	want := c1.Aggregate()
	if r.Users != want.Users || r.Arrived != want.Arrived || r.Delivered != want.Delivered ||
		r.DeliveredBytes != want.DeliveredBytes || r.UtilitySum != want.UtilitySum ||
		r.ClickedAndDelivered != want.ClickedAndDelivered ||
		r.DeliveredBeforeClick != want.DeliveredBeforeClick ||
		r.DelayRoundsSum != want.DelayRoundsSum {
		t.Fatalf("merged report %+v, want %+v", r, want)
	}
	if r.LevelCounts[2] != 2 {
		t.Fatalf("merged level counts %v", r.LevelCounts)
	}
}
