package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/notif"
)

// TestDeliveriesJSONMatches holds the append encoder to encoding/json byte
// for byte over randomized feeds: every optional field on and off, floats
// from denormal to 1e300 on both sides of the exponent-form thresholds,
// times with and without fractional seconds and zone offsets, and the
// empty feed (nil and non-nil), which must render as [].
func TestDeliveriesJSONMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return rng.Float64()
		case 2: // straddles 1e-6, where the exponent form starts
			return 1e-6 * (0.5 + rng.Float64())
		case 3: // straddles 1e21, where it starts again
			return 1e21 * (0.5 + rng.Float64())
		case 4: // two- and three-digit exponents, both signs
			return math.Pow(10, float64(rng.Intn(600)-300)) * (1 + rng.Float64())
		case 5:
			return math.Float64frombits(rng.Uint64() >> 12) // denormals
		case 6:
			return -rng.Float64() * 1e3
		default:
			return float64(rng.Intn(1 << 20))
		}
	}
	instant := func() time.Time {
		at := time.Unix(rng.Int63n(4e9), 0)
		if rng.Intn(2) == 0 {
			at = at.Add(time.Duration(rng.Int63n(1e9)))
		}
		if rng.Intn(2) == 0 {
			return at.UTC()
		}
		return at.In(time.FixedZone("", (rng.Intn(27)-13)*1800))
	}
	var got []byte
	for trial := 0; trial < 2000; trial++ {
		ds := make([]notif.Delivery, rng.Intn(6))
		if trial == 0 {
			ds = nil
		}
		for i := range ds {
			ds[i] = notif.Delivery{
				ItemID:         notif.ItemID(rng.Int63() - 1<<62),
				Recipient:      notif.UserID(rng.Int63n(1 << 40)),
				Level:          rng.Intn(7),
				Size:           rng.Int63n(1 << 30),
				Utility:        float(),
				EnergyJ:        float(),
				ArrivedRound:   rng.Intn(1000),
				DeliveredRound: rng.Intn(1000),
				DeliveredAt:    instant(),
			}
			if rng.Intn(2) == 0 {
				ds[i].TrueUtility = float()
			}
			if rng.Intn(2) == 0 {
				ds[i].Retries = rng.Intn(5)
			}
			ds[i].Degraded = rng.Intn(2) == 0
		}
		user := notif.UserID(rng.Int63n(1 << 40))
		want := DeliveriesResponse{User: user, Deliveries: ds}
		if ds == nil {
			want.Deliveries = []notif.Delivery{}
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(want); err != nil {
			t.Fatal(err)
		}
		// Split the feed where a ring would wrap: the two runs must encode
		// as the one slice does.
		cut := trial % (len(ds) + 1)
		got = appendDeliveriesJSON(got[:0], user, ds[:cut], ds[cut:])
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, ref.Bytes())
		}
	}
}
