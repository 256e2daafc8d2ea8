package server

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"github.com/richnote/richnote/internal/notif"
)

// ring is a consistent-hash ring over shard indices. Every shard owns
// replicas points on a 64-bit circle; a user maps to the first point at or
// after the hash of its ID. Consistent hashing (rather than a plain
// modulus) keeps most user→shard assignments stable when the shard count
// changes between deployments, so recent-delivery feeds and queue state
// survive a resharding restart for the majority of users.
type ring struct {
	points []ringPoint // sorted by hash, ascending
}

type ringPoint struct {
	hash  uint64
	shard int
}

// defaultReplicas balances lookup cost against assignment smoothness; 128
// virtual nodes per shard keeps the max/min shard load ratio within a few
// percent for realistic user counts.
const defaultReplicas = 128

// newRing builds a ring over shards 0..shards-1.
func newRing(shards, replicas int) *ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &ring{points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("shard:%d:%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare) tie-break by shard so the
		// ring order is deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// shardFor maps a user to its owning shard: the first ring point at or
// after the FNV-1a hash of "user:<decimal id>". It runs on every publish
// and feed read, so the key is rendered into a stack buffer and hashed
// inline; TestShardForMatchesFormattedHash holds it to zero allocations.
func (r *ring) shardFor(u notif.UserID) int {
	var buf [32]byte
	key := strconv.AppendInt(append(buf[:0], "user:"...), int64(u), 10)
	h := uint64(fnvOffset64)
	for _, b := range key {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard
}

// FNV-1a's 64-bit parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
