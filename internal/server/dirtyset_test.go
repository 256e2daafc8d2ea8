package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/wal"
)

// dirtyWorkload is a pre-generated publish script: pubs[r] lists the
// publications to issue before ticking round r. Generating the script up
// front (instead of publishing from a shared rng while driving) lets
// several servers replay the identical workload.
type dirtyWorkload struct {
	pubs [][]dirtyPub
}

type dirtyPub struct {
	topic pubsub.TopicID
	user  notif.UserID
	item  notif.Item
}

// genDirtyWorkload builds a seeded bursty workload over nUsers users and
// nRounds rounds: short publish bursts separated by long idle gaps, which
// is exactly the shape where the event-driven loop parks users for many
// rounds and the lazy fast-forward path has real distance to cover.
func genDirtyWorkload(seed int64, nUsers, nRounds int) dirtyWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := dirtyWorkload{pubs: make([][]dirtyPub, nRounds)}
	id := 0
	r := 0
	for r < nRounds {
		// A burst: 1-3 rounds of publishes to a random handful of users,
		// across all three topic cadences.
		burst := 1 + rng.Intn(3)
		for b := 0; b < burst && r < nRounds; b++ {
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				user := notif.UserID(1 + rng.Intn(nUsers))
				var topic pubsub.TopicID
				switch rng.Intn(3) {
				case 0:
					topic = pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
				case 1:
					topic = pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: 2}
				default:
					topic = pubsub.TopicID{Kind: notif.TopicPlaylist, Entity: 3}
				}
				id++
				w.pubs[r] = append(w.pubs[r], dirtyPub{topic: topic, user: user, item: audioItem(id, 99)})
			}
			r++
		}
		// A gap: up to ~12 idle rounds where parked users stay parked.
		r += rng.Intn(13)
	}
	return w
}

// drive replays workload rounds [from, to) against a server.
func (w dirtyWorkload) drive(t *testing.T, s *Server, from, to int) {
	t.Helper()
	ctx := context.Background()
	for r := from; r < to; r++ {
		if r < len(w.pubs) {
			for _, p := range w.pubs[r] {
				if err := s.Publish(p.topic, p.user, p.item); err != nil {
					t.Fatalf("round %d publish: %v", r, err)
				}
			}
		}
		if err := s.Tick(ctx); err != nil {
			t.Fatalf("tick %d: %v", r, err)
		}
	}
}

// dirtyConfig is the equivalence-test config: faults on (so RNG draw
// counters and retry state matter), the paper's three-state walk, a mix
// of strategies, and small snapshot intervals so crashes land both on
// and between compaction boundaries.
func dirtyConfig(walDir string) Config {
	m := network.PaperMatrix()
	return Config{
		Shards:        2,
		Seed:          42,
		WALDir:        walDir,
		WALFsync:      wal.SyncAlways,
		SnapshotEvery: 7,
		Faults:        network.FaultConfig{CellLoss: 0.2, CellDisconnect: 0.1},
		Default: UserConfig{
			NetworkMatrix:     &m,
			WeeklyBudgetBytes: 1 << 30,
		},
		Users: []UserConfig{
			{User: 1, NetworkMatrix: &m, WeeklyBudgetBytes: 1 << 30},
			{User: 2, NetworkMatrix: &m, Strategy: core.StrategyFIFO, FixedLevel: 2, WeeklyBudgetBytes: 1 << 30},
			{User: 3, NetworkMatrix: &m, Strategy: core.StrategyUtil, WeeklyBudgetBytes: 1 << 29},
		},
	}
}

// TestDirtySetEquivalence is the durability leg of the event-driven
// acceptance test (the engine's own leg, event-driven against the
// every-user reference loop, is core.TestDirtySetEquivalence): over
// randomized seeded traces (bursty publishes, long idle gaps, faults on)
// a server crashed at a random round and recovered through WAL replay —
// which must drive the same dirty-set path — exports canonical state
// byte-identical to an uninterrupted server running the same script.
func TestDirtySetEquivalence(t *testing.T) {
	const nUsers, nRounds = 9, 40
	for _, seed := range []int64{1, 7331, 902245} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := genDirtyWorkload(seed, nUsers, nRounds)

			event, err := New(dirtyConfig(""))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			cfg := dirtyConfig(dir)
			crashed, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Server{event, crashed} {
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
			}

			// Crash the WAL-backed server at a random round, restore it, and
			// check the recovered shard state matches what the crashed
			// process held.
			crashAt := 5 + rand.New(rand.NewSource(seed^0x5ca1ab1e)).Intn(nRounds-10)
			w.drive(t, crashed, 0, crashAt)
			crashed.CrashStop()
			captured := shardStates(crashed)
			crashed, err = New(cfg)
			if err != nil {
				t.Fatalf("recovery New at round %d: %v", crashAt, err)
			}
			compareStates(t, fmt.Sprintf("recovered at round %d", crashAt), shardStates(crashed), captured)
			if err := crashed.Start(); err != nil {
				t.Fatal(err)
			}
			w.drive(t, crashed, crashAt, nRounds)

			w.drive(t, event, 0, nRounds)

			event.CrashStop()
			crashed.CrashStop()
			compareStates(t, "crash-recovered vs uninterrupted", shardStates(crashed), shardStates(event))
		})
	}
}
