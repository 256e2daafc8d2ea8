package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/richnote/richnote/internal/notif"
)

// deliver records one delivery to user u that waited delay rounds.
func deliver(c *Collector, u notif.UserID, delay int) {
	c.OnDeliver(notif.Delivery{Recipient: u, Level: 1, DeliveredRound: delay}, DeliveryOutcome{})
}

// nearestRank is the sort-based oracle: the p-th percentile of the raw
// samples by nearest rank.
func nearestRank(sorted []int, p float64) float64 {
	rank := max(int(math.Ceil(p/100*float64(len(sorted)))), 1)
	return float64(sorted[rank-1])
}

func TestHistogramEmpty(t *testing.T) {
	c := NewCollector()
	for _, r := range []Report{c.Aggregate(), c.Running()} {
		if r.DelayP50Rounds != 0 || r.DelayP95Rounds != 0 {
			t.Fatalf("empty collector percentiles p50=%v p95=%v, want 0", r.DelayP50Rounds, r.DelayP95Rounds)
		}
	}
	for _, b := range c.DelayBuckets() {
		if b.Count != 0 {
			t.Fatalf("empty collector bucket %+v, want count 0", b)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	c := NewCollector()
	for _, d := range []int{5, 1, 3, 2, 4} {
		deliver(c, 1, d)
	}
	if got := c.Aggregate().DelayP50Rounds; got != 3 {
		t.Fatalf("p50 %v, want 3", got)
	}
	if got := delayPercentile(c.delays, 100); got != 5 {
		t.Fatalf("p100 %v, want 5", got)
	}
	if got := delayPercentile(c.delays, 0); got != 1 {
		t.Fatalf("p0 %v, want 1 (nearest rank floor)", got)
	}
	// Out-of-range percentiles clamp.
	if delayPercentile(c.delays, -5) != 1 || delayPercentile(c.delays, 150) != 5 {
		t.Fatal("percentile clamping broken")
	}
}

// A delivery after a query lands in the distribution, and a repeated
// delay adds to its entry instead of a new one.
func TestHistogramAddAfterQuery(t *testing.T) {
	c := NewCollector()
	deliver(c, 1, 10)
	if c.Running().DelayP50Rounds != 10 {
		t.Fatal("p50 of single sample")
	}
	deliver(c, 1, 1)
	if got := c.Running().DelayP50Rounds; got != 1 {
		t.Fatalf("p50 after new sample %v, want 1", got)
	}
	deliver(c, 2, 10)
	want := []DelayCount{{Delay: 1, Count: 1}, {Delay: 10, Count: 2}}
	if !reflect.DeepEqual(c.delays, want) {
		t.Fatalf("delays %+v, want %+v", c.delays, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	deliver(a, 1, 1)
	deliver(a, 1, 4)
	deliver(b, 2, 2)
	deliver(b, 2, 4)
	a.Merge(b)
	want := []DelayCount{{Delay: 1, Count: 1}, {Delay: 2, Count: 1}, {Delay: 4, Count: 2}}
	if !reflect.DeepEqual(a.delays, want) {
		t.Fatalf("merged delays %+v, want %+v", a.delays, want)
	}
	if len(b.delays) != 2 {
		t.Fatalf("merge mutated its source: %+v", b.delays)
	}
}

// Property: percentile is monotone in p and always one of the delays.
func TestHistogramPercentileProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector()
		set := map[float64]bool{}
		for i := 1 + rng.Intn(200); i > 0; i-- {
			d := rng.Intn(300)
			deliver(c, 1, d)
			set[float64(d)] = true
		}
		prev := delayPercentile(c.delays, 0)
		for p := 5.0; p <= 100; p += 5 {
			cur := delayPercentile(c.delays, p)
			if cur < prev || !set[cur] {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramAgainstReference feeds random integer delays — a heavy
// head of short waits and a tail past the last bucket bound — and checks
// the distribution against the raw samples: Aggregate and Running
// percentiles equal the sort-based oracle, DelayBuckets equals a
// brute-force count, and merging two collectors equals one collector fed
// both streams.
func TestHistogramAgainstReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 4242} {
		rng := rand.New(rand.NewSource(seed))
		all, a, b := NewCollector(), NewCollector(), NewCollector()
		var vals []int
		for i := 1 + rng.Intn(2000); i > 0; i-- {
			d := rng.Intn(6)
			if rng.Intn(10) == 0 {
				d = rng.Intn(1000)
			}
			u := notif.UserID(1 + rng.Intn(7))
			vals = append(vals, d)
			deliver(all, u, d)
			if rng.Intn(2) == 0 {
				deliver(a, u, d)
			} else {
				deliver(b, u, d)
			}
		}
		sort.Ints(vals)

		for _, r := range []Report{all.Aggregate(), all.Running()} {
			if r.DelayP50Rounds != nearestRank(vals, 50) || r.DelayP95Rounds != nearestRank(vals, 95) {
				t.Fatalf("seed %d: p50/p95 = %v/%v, want %v/%v", seed,
					r.DelayP50Rounds, r.DelayP95Rounds, nearestRank(vals, 50), nearestRank(vals, 95))
			}
		}
		for _, bk := range all.DelayBuckets() {
			n := uint64(0)
			for _, v := range vals {
				if float64(v) <= bk.UpperBound {
					n++
				}
			}
			if bk.Count != n {
				t.Fatalf("seed %d: bucket le=%v counts %d, want %d", seed, bk.UpperBound, bk.Count, n)
			}
		}

		a.Merge(b)
		if got, want := a.ExportState(), all.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: merged state %+v, want %+v", seed, got, want)
		}
		if got, want := a.Running(), all.Running(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: merged running %+v, want %+v", seed, got, want)
		}
	}
}

func TestCollectorDelayPercentiles(t *testing.T) {
	c := NewCollector()
	for i, delay := range []int{0, 0, 1, 2, 10} {
		c.OnDeliver(notif.Delivery{
			ItemID: notif.ItemID(i), Recipient: 1, Level: 1,
			ArrivedRound: 0, DeliveredRound: delay,
		}, DeliveryOutcome{})
	}
	r := c.Aggregate()
	if r.DelayP50Rounds != 1 {
		t.Fatalf("p50 %f, want 1", r.DelayP50Rounds)
	}
	if r.DelayP95Rounds != 10 {
		t.Fatalf("p95 %f, want 10", r.DelayP95Rounds)
	}
	want := []DelayCount{{0, 2}, {1, 1}, {2, 1}, {10, 1}}
	if got := c.ExportState().Delays; !reflect.DeepEqual(got, want) {
		t.Fatalf("exported delays %+v, want %+v", got, want)
	}
}

func TestCollectorDelayMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.OnDeliver(notif.Delivery{Recipient: 1, Level: 1, DeliveredRound: 2}, DeliveryOutcome{})
	b.OnDeliver(notif.Delivery{Recipient: 2, Level: 1, DeliveredRound: 8}, DeliveryOutcome{})
	a.Merge(b)
	if got := a.Aggregate().Delivered; got != 2 {
		t.Fatalf("merged deliveries %d, want 2", got)
	}
	if got := a.Aggregate().DelayP95Rounds; got != 8 {
		t.Fatalf("merged p95 %f, want 8", got)
	}
}

// RestoreState accepts only the canonical form ExportState writes.
func TestCollectorRestoreRefusesNonCanonicalDelays(t *testing.T) {
	for name, delays := range map[string][]DelayCount{
		"negative delay": {{Delay: -1, Count: 1}},
		"zero count":     {{Delay: 0, Count: 1}, {Delay: 2, Count: 0}},
		"descending":     {{Delay: 3, Count: 1}, {Delay: 2, Count: 1}},
		"duplicate":      {{Delay: 2, Count: 1}, {Delay: 2, Count: 4}},
	} {
		if err := NewCollector().RestoreState(CollectorState{Delays: delays}); err == nil {
			t.Errorf("%s: restored %+v", name, delays)
		}
	}
	ok := []DelayCount{{Delay: 0, Count: 3}, {Delay: 200, Count: 1}}
	c := NewCollector()
	if err := c.RestoreState(CollectorState{Delays: ok}); err != nil {
		t.Fatal(err)
	}
	if got := c.ExportState().Delays; !reflect.DeepEqual(got, ok) {
		t.Fatalf("round trip %+v, want %+v", got, ok)
	}
}
