package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/server"
)

// capacityScale sizes one capacity sweep: a ladder of resident user
// counts with a fixed-size active set, so growing the ladder grows only
// idle users — exactly the population shape the event-driven round loop
// is built for.
type capacityScale struct {
	userLadder []int
	active     int // users publishing per round (sparse: <=1% at ladder top)
	rounds     int // measured rounds
	warmup     int // unmeasured leading rounds: every fresh controller is
	// non-quiescent until its virtual energy climbs past kappa, so the
	// first few rounds step the whole population in either mode
	shards   int
	interval time.Duration // round budget a sustained node must hold
	seed     int64
}

func defaultCapacityScale(seed int64) capacityScale {
	return capacityScale{
		userLadder: []int{10_000, 30_000, 100_000, 300_000},
		active:     100,
		rounds:     40,
		warmup:     8,
		shards:     4,
		interval:   25 * time.Millisecond,
		seed:       seed,
	}
}

func quickCapacityScale(seed int64) capacityScale {
	return capacityScale{
		userLadder: []int{2_000, 20_000},
		active:     20,
		rounds:     12,
		warmup:     5,
		shards:     4,
		interval:   25 * time.Millisecond,
		seed:       seed,
	}
}

// capacityRow is one measurement of the ladder.
type capacityRow struct {
	users      int
	active     int
	rounds     int
	avgRound   time.Duration
	p99Round   time.Duration
	p99Publish time.Duration
	sustained  bool
}

// runCapacity measures max sustained users/node at a fixed round interval
// (rounds and snapshots are O(dirty), so idle residents should be free),
// then writes C1.csv.
func runCapacity(outDir string, quick bool, seed int64) error {
	if seed == 0 {
		seed = 42
	}
	scale := defaultCapacityScale(seed)
	if quick {
		scale = quickCapacityScale(seed)
	}
	fmt.Printf("capacity sweep: users %v, %d active/round, %d rounds, %d shards, %s round budget\n",
		scale.userLadder, scale.active, scale.rounds, scale.shards, scale.interval)

	var rows []capacityRow
	for _, users := range scale.userLadder {
		row, err := runCapacityPoint(scale, users)
		if err != nil {
			return err
		}
		// Reclaim the previous point's device stacks before measuring
		// the next one, so a 300k-user heap doesn't tax a 10k run's GC.
		runtime.GC()
		rows = append(rows, row)
		fmt.Printf("  %7d users: avg round %v, p99 round %v, p99 publish %v, sustained=%v\n",
			row.users, row.avgRound.Round(time.Microsecond),
			row.p99Round.Round(time.Microsecond), row.p99Publish.Round(time.Microsecond),
			row.sustained)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", outDir, err)
	}
	path := filepath.Join(outDir, "C1.csv")
	if err := os.WriteFile(path, []byte(renderCapacityCSV(rows)), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}

	fmt.Println()
	max := 0
	for _, r := range rows {
		if r.sustained && r.users > max {
			max = r.users
		}
	}
	fmt.Printf("max sustained users/node: %d\n", max)
	if first := rows[0].p99Round; first > 0 {
		fmt.Printf("p99 round latency growth across a %.0fx idle-user increase: %.2fx\n",
			float64(scale.userLadder[len(scale.userLadder)-1])/float64(scale.userLadder[0]),
			float64(rows[len(rows)-1].p99Round)/float64(first))
	}
	fmt.Printf("CSV written to %s\n", path)
	return nil
}

// runCapacityPoint drives one server through the sparse workload and
// measures round and publish latencies.
func runCapacityPoint(scale capacityScale, users int) (capacityRow, error) {
	m := network.PaperMatrix()
	cfg := server.Config{
		Shards: scale.shards,
		Seed:   scale.seed,
		Default: server.UserConfig{
			NetworkMatrix:     &m,
			WeeklyBudgetBytes: 1 << 30,
		},
	}
	// Register ascending so each shard's ordered insert appends at the
	// tail; capacity measures the round loop, not registration.
	cfg.Users = make([]server.UserConfig, 0, users)
	for u := 1; u <= users; u++ {
		cfg.Users = append(cfg.Users, server.UserConfig{
			User:              notif.UserID(u),
			NetworkMatrix:     &m,
			WeeklyBudgetBytes: 1 << 30,
		})
	}
	s, err := server.New(cfg)
	if err != nil {
		return capacityRow{}, err
	}
	if err := s.Start(); err != nil {
		return capacityRow{}, err
	}
	defer s.CrashStop()

	rng := rand.New(rand.NewSource(scale.seed * int64(users+1)))
	ctx := context.Background()
	roundLat := make([]time.Duration, 0, scale.rounds)
	pubLat := make([]time.Duration, 0, scale.rounds*scale.active)
	id := 0
	for r := 0; r < scale.warmup+scale.rounds; r++ {
		measured := r >= scale.warmup
		for i := 0; i < scale.active; i++ {
			recipient := notif.UserID(1 + rng.Intn(users))
			// Per-user feed topics: the broker fans a topic publication out
			// to every subscriber (each subscription keeps only its own
			// addressed items), so a single shared topic would accumulate
			// subscribers and densify the workload over time. One feed per
			// recipient keeps the active set genuinely sparse.
			topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: int64(recipient)}
			id++
			item := notif.Item{
				ID:     notif.ItemID(id),
				Kind:   notif.KindAudio,
				Sender: notif.UserID(users + 1),
				Meta: notif.Metadata{
					TrackID:          int64(id),
					TrackPopularity:  80,
					ArtistPopularity: 60,
				},
				TieStrength: 0.8,
			}
			t0 := time.Now()
			err := s.Publish(topic, recipient, item)
			if measured {
				pubLat = append(pubLat, time.Since(t0))
			}
			if err != nil {
				return capacityRow{}, fmt.Errorf("%d users: publish: %w", users, err)
			}
		}
		t0 := time.Now()
		if err := s.Tick(ctx); err != nil {
			return capacityRow{}, fmt.Errorf("%d users: tick %d: %w", users, r, err)
		}
		if measured {
			roundLat = append(roundLat, time.Since(t0))
		}
	}

	var sum time.Duration
	for _, d := range roundLat {
		sum += d
	}
	row := capacityRow{
		users:      users,
		active:     scale.active,
		rounds:     scale.rounds,
		avgRound:   sum / time.Duration(len(roundLat)),
		p99Round:   percentileDuration(roundLat, 99),
		p99Publish: percentileDuration(pubLat, 99),
	}
	row.sustained = row.p99Round <= scale.interval
	return row, nil
}

// percentileDuration is the nearest-rank percentile of the samples.
func percentileDuration(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted)) * p / 100)
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// renderCapacityCSV keeps the mode column the file has always had; the
// only mode left is the event-driven loop.
func renderCapacityCSV(rows []capacityRow) string {
	out := "mode,users,active_per_round,rounds,avg_round_us,p99_round_us,p99_publish_us,sustained\n"
	for _, r := range rows {
		out += fmt.Sprintf("event,%d,%d,%d,%d,%d,%d,%t\n",
			r.users, r.active, r.rounds,
			r.avgRound.Microseconds(), r.p99Round.Microseconds(),
			r.p99Publish.Microseconds(), r.sustained)
	}
	return out
}
