package server

import (
	"fmt"
	"sort"
	"testing"

	"github.com/richnote/richnote/internal/notif"
)

func TestRingDeterministic(t *testing.T) {
	a := newRing(4, 0)
	b := newRing(4, 0)
	for u := notif.UserID(1); u <= 1000; u++ {
		if a.shardFor(u) != b.shardFor(u) {
			t.Fatalf("user %d maps to %d and %d on identical rings", u, a.shardFor(u), b.shardFor(u))
		}
	}
}

func TestRingCoversAllShards(t *testing.T) {
	const shards = 4
	r := newRing(shards, 0)
	counts := make([]int, shards)
	for u := notif.UserID(1); u <= 10000; u++ {
		s := r.shardFor(u)
		if s < 0 || s >= shards {
			t.Fatalf("user %d mapped to out-of-range shard %d", u, s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no users: %v", s, counts)
		}
		// With 128 virtual nodes per shard the split should be roughly
		// uniform; allow a wide band to keep the test robust.
		if n < 10000/shards/3 || n > 10000*3/shards {
			t.Errorf("shard %d load %d is badly skewed: %v", s, n, counts)
		}
	}
}

func TestRingStabilityUnderGrowth(t *testing.T) {
	// Adding a shard should move roughly 1/new_shards of the users — the
	// consistent-hashing property that motivates the ring over a modulus.
	before := newRing(4, 0)
	after := newRing(5, 0)
	const users = 10000
	moved := 0
	for u := notif.UserID(1); u <= users; u++ {
		if before.shardFor(u) != after.shardFor(u) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no users moved when a shard was added; ring is degenerate")
	}
	if moved > users/2 {
		t.Errorf("adding one shard moved %d/%d users; want a minority", moved, users)
	}
}

func TestRingSingleShard(t *testing.T) {
	r := newRing(1, 8)
	for u := notif.UserID(1); u <= 100; u++ {
		if s := r.shardFor(u); s != 0 {
			t.Fatalf("single-shard ring mapped user %d to %d", u, s)
		}
	}
}

// TestShardForMatchesFormattedHash pins placement: the inline FNV-1a over
// a stack buffer must map every user exactly where hashing the formatted
// key with hash/fnv did, and must not allocate.
func TestShardForMatchesFormattedHash(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		r := newRing(shards, 0)
		for u := notif.UserID(1); u <= 100000; u++ {
			h := hash64(fmt.Sprintf("user:%d", u))
			i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
			if i == len(r.points) {
				i = 0
			}
			if got, want := r.shardFor(u), r.points[i].shard; got != want {
				t.Fatalf("%d shards: user %d maps to shard %d, formatted-key hash to %d", shards, u, got, want)
			}
		}
	}
	r := newRing(4, 0)
	for _, u := range []notif.UserID{7, 1 << 40, -3} {
		if allocs := testing.AllocsPerRun(100, func() { _ = r.shardFor(u) }); allocs != 0 {
			t.Fatalf("shardFor(%d) allocated %.1f objects/op, want 0", u, allocs)
		}
	}
}
