package sim

import (
	"math/rand"
)

// RNG stream identifiers. Each subsystem draws from its own deterministic
// stream so that, for a fixed master seed, changing how one subsystem
// consumes randomness does not perturb the others. This keeps experiment
// sweeps comparable across configurations.
const (
	StreamCatalog = iota + 1
	StreamSocialGraph
	StreamTrace
	StreamLabels
	StreamNetwork
	StreamEnergy
	StreamSurvey
	StreamForest
	StreamShuffle
	StreamWorkload
	// StreamFaults feeds per-user transfer fault models. It is appended
	// after the original streams: stream identifiers are positional seeds,
	// so inserting it earlier would shift every downstream stream's seed
	// and silently change all existing experiment outputs.
	StreamFaults
)

// golden is SplitMix64's state increment, the odd integer nearest 2^64/φ.
const golden = 0x9e3779b97f4a7c15

// splitMix64 advances a SplitMix64 state and returns the next output. It
// derives well-separated stream seeds from a single master seed, and it is
// the output function of Stream.
func splitMix64(state *uint64) uint64 {
	*state += golden
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StreamSeed derives a deterministic sub-seed for the given stream from a
// master seed.
func StreamSeed(master int64, stream int) int64 {
	state := uint64(master) ^ 0x5851f42d4c957f2d
	for i := 0; i <= stream; i++ {
		splitMix64(&state)
	}
	out := splitMix64(&state)
	return int64(out & 0x7fffffffffffffff) // math/rand seeds must be usable as-is
}

// NewRNG returns a rand.Rand seeded for the given (master seed, stream)
// pair.
func NewRNG(master int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(StreamSeed(master, stream)))
}

// Stream is a seekable, counter-based random stream (SplitMix64, Steele et
// al., OOPSLA 2014, evaluated at an explicit position in the manner of
// Salmon et al., SC 2011): draw n is a pure function of (key, n), so the
// whole state is two words and Seek is O(1). Devices hold one per random
// process — network walk, battery jitter, transfer faults — by value, and a
// snapshot's draw count is exactly the position to Seek to on restore.
type Stream struct {
	key uint64
	n   uint64
}

// NewStream returns the stream keyed by seed, at position 0. The seed is
// passed through the mixer once, so adjacent seeds (s, s+1, s+2) start
// unrelated sequences.
func NewStream(seed int64) Stream {
	state := uint64(seed)
	return Stream{key: splitMix64(&state)}
}

// Float64 returns draw n as a float64 in [0, 1) and advances to n+1. The
// 53 high bits of the SplitMix64 output fill the mantissa, so every value
// is a multiple of 2^-53 below 1.
func (s *Stream) Float64() float64 {
	state := s.key + s.n*golden
	s.n++
	return float64(splitMix64(&state)>>11) * 0x1p-53
}

// Draws returns the stream's position: how many draws it has made since
// position 0.
func (s *Stream) Draws() uint64 { return s.n }

// Seek moves the stream to position n, forward or back; the next Float64
// returns draw n.
func (s *Stream) Seek(n uint64) { s.n = n }
