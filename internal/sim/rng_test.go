package sim

import (
	"math"
	"testing"
)

func TestStreamSeekMatchesDraws(t *testing.T) {
	walked := NewStream(11)
	for n := uint64(0); n <= 1000; n++ {
		sought := NewStream(11)
		sought.Seek(n)
		if walked.Draws() != n {
			t.Fatalf("walked stream at %d after %d draws", walked.Draws(), n)
		}
		if got, want := sought.Float64(), walked.Float64(); got != want {
			t.Fatalf("Seek(%d) draws %v, %d draws then one more gives %v", n, got, n, want)
		}
	}
	// Seeking back replays a draw; the stream itself has no direction.
	s := NewStream(11)
	first := s.Float64()
	s.Seek(0)
	if again := s.Float64(); again != first {
		t.Fatalf("draw 0 after Seek(0) = %v, want %v", again, first)
	}
}

// TestStreamMoments checks every draw is in [0, 1) and that the sample
// mean and variance of 10^6 draws sit within 4σ of U(0,1)'s 1/2 and 1/12.
func TestStreamMoments(t *testing.T) {
	const n = 1_000_000
	s := NewStream(StreamSeed(1, StreamNetwork))
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := s.Float64()
		if !(u >= 0 && u < 1) {
			t.Fatalf("draw %d = %v outside [0,1)", i, u)
		}
		sum += u
		sumSq += (u - 0.5) * (u - 0.5)
	}
	mean, variance := sum/n, sumSq/n
	// Var[U] = 1/12; Var[(U-1/2)^2] = 1/80 - 1/144 = 1/180.
	if sigma := math.Sqrt(1.0 / 12 / n); math.Abs(mean-0.5) > 4*sigma {
		t.Errorf("mean %v, want 0.5 ± %v", mean, 4*sigma)
	}
	if sigma := math.Sqrt(1.0 / 180 / n); math.Abs(variance-1.0/12) > 4*sigma {
		t.Errorf("variance %v, want 1/12 ± %v", variance, 4*sigma)
	}
}

// TestStreamAdjacentKeysUncorrelated: NewStream mixes the seed, so seeds
// s, s+1 and s+2 must draw uncorrelated sequences (|r| within 4σ of 0,
// σ = 1/√n).
func TestStreamAdjacentKeysUncorrelated(t *testing.T) {
	const n = 1_000_000
	const seed = 12345
	for _, pair := range [][2]int64{{seed, seed + 1}, {seed, seed + 2}, {seed + 1, seed + 2}} {
		a, b := NewStream(pair[0]), NewStream(pair[1])
		var sa, sb, sab, saa, sbb float64
		for i := 0; i < n; i++ {
			x, y := a.Float64(), b.Float64()
			sa += x
			sb += y
			sab += x * y
			saa += x * x
			sbb += y * y
		}
		cov := sab/n - (sa/n)*(sb/n)
		r := cov / math.Sqrt((saa/n-(sa/n)*(sa/n))*(sbb/n-(sb/n)*(sb/n)))
		if limit := 4 / math.Sqrt(n); math.Abs(r) > limit {
			t.Errorf("keys %d and %d: correlation %v, want |r| ≤ %v", pair[0], pair[1], r, limit)
		}
	}
}

var streamSink float64

func BenchmarkStreamFloat64(b *testing.B) {
	s := NewStream(1)
	for i := 0; i < b.N; i++ {
		streamSink += s.Float64()
	}
}
