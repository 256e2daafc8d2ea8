package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/wal"
)

// recoveryConfig builds a deterministic config that exercises every
// restorable surface: the paper's three-state network walk and injected
// faults (so RNG draw counters matter), a mix of pre-registered
// strategies, and auto-registration for users first seen via publish.
func recoveryConfig(shards int, walDir string) Config {
	m := network.PaperMatrix()
	return Config{
		Shards:        shards,
		Seed:          42,
		WALDir:        walDir,
		WALFsync:      wal.SyncAlways,
		SnapshotEvery: 5,
		Faults:        network.FaultConfig{CellLoss: 0.2, CellDisconnect: 0.1},
		Default: UserConfig{
			NetworkMatrix:     &m,
			WeeklyBudgetBytes: 1 << 30,
		},
		Users: []UserConfig{
			{User: 1, NetworkMatrix: &m, WeeklyBudgetBytes: 1 << 30},
			{User: 2, NetworkMatrix: &m, Strategy: core.StrategyFIFO, FixedLevel: 2, WeeklyBudgetBytes: 1 << 30},
		},
	}
}

// driveRounds publishes a deterministic workload and ticks rounds
// [from, to). The topic mix spans all three cadences so pending broker
// buffers straddle crash points, and recipients beyond cfg.Users force
// auto-registration.
func driveRounds(t *testing.T, s *Server, from, to int) {
	t.Helper()
	ctx := context.Background()
	for r := from; r < to; r++ {
		for i := 0; i < 3; i++ {
			user := notif.UserID(r%5 + 1)
			topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
			switch i {
			case 1:
				topic = pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: 2}
			case 2:
				topic = pubsub.TopicID{Kind: notif.TopicPlaylist, Entity: 3}
			}
			if err := s.Publish(topic, user, audioItem(r*100+i, 99)); err != nil {
				t.Fatalf("round %d publish %d: %v", r, i, err)
			}
		}
		if err := s.Tick(ctx); err != nil {
			t.Fatalf("tick %d: %v", r, err)
		}
	}
}

// shardStates captures every shard's canonical state encoding. Only safe
// once the shard goroutines have stopped (or never started).
func shardStates(s *Server) [][]byte {
	out := make([][]byte, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stateBytes()
	}
	return out
}

func compareStates(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: shard %d state differs (%d vs %d bytes)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// TestCrashRecoveryBitIdentical is the tentpole acceptance test: a server
// is killed at several points (before its first compaction, mid-interval
// after one, and deep into the run), restored from snapshot + WAL each
// time, and must (a) come back bit-identical to the state the crashed
// process held, and (b) finish the workload bit-identical to a reference
// server that ran the same script uninterrupted with durability off —
// queues, ledgers, Lyapunov Q/P, RNG positions and metrics counters all
// encoded in the compared bytes.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(2, dir)

	ref, err := New(recoveryConfig(2, ""))
	if err != nil {
		t.Fatalf("New reference: %v", err)
	}
	if err := ref.Start(); err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// Randomized (seeded) crash points: with SnapshotEvery 5 and three
	// cuts drawn from disjoint windows, the run crashes before its first
	// compaction (pure replay), one interval in (snapshot + replay), and
	// deep into the run with a mid-interval tail.
	rng := rand.New(rand.NewSource(987))
	crashRounds := []int{
		1 + rng.Intn(4),  // [1, 4]: before the first compaction
		6 + rng.Intn(4),  // [6, 9]: one snapshot behind us
		12 + rng.Intn(6), // [12, 17]: several compactions in
	}
	round := 0
	for _, crashAt := range crashRounds {
		driveRounds(t, s, round, crashAt)
		driveRounds(t, ref, round, crashAt)
		round = crashAt

		s.CrashStop()
		captured := shardStates(s)
		s, err = New(cfg)
		if err != nil {
			t.Fatalf("recovery New after crash at round %d: %v", crashAt, err)
		}
		compareStates(t, fmt.Sprintf("recovered at round %d", crashAt), shardStates(s), captured)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}

	driveRounds(t, s, round, 20)
	driveRounds(t, ref, round, 20)
	s.CrashStop()
	ref.CrashStop()
	compareStates(t, "crashed/recovered run vs uninterrupted WAL-off run", shardStates(s), shardStates(ref))
}

// TestWALLoggingDoesNotPerturbSchedule pins the hot-path isolation
// property from the other side: with no crash at all, a WAL-enabled run
// must be bit-identical to a WAL-off run of the same script — logging is
// pure observation.
func TestWALLoggingDoesNotPerturbSchedule(t *testing.T) {
	on, err := New(recoveryConfig(2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(recoveryConfig(2, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Server{on, off} {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	driveRounds(t, on, 0, 8)
	driveRounds(t, off, 0, 8)
	on.CrashStop()
	off.CrashStop()
	compareStates(t, "WAL on vs off", shardStates(on), shardStates(off))
}

// TestCleanShutdownNeedsNoReplay pins the graceful-drain satellite:
// Shutdown must flush a final snapshot and compact the log, so a clean
// restart recovers purely from the snapshot with an empty WAL.
func TestCleanShutdownNeedsNoReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(1, dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	driveRounds(t, s, 0, 6)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	captured := shardStates(s)

	fi, err := os.Stat(filepath.Join(dir, "shard-0.wal"))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	if fi.Size() != 0 {
		t.Errorf("wal is %d bytes after clean shutdown, want 0 (compacted into snapshot)", fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0.snap")); err != nil {
		t.Fatalf("snapshot missing after clean shutdown: %v", err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	compareStates(t, "clean restart", shardStates(s2), captured)
}

// crashWithLiveLog runs a single-shard server with compaction pushed out
// of reach, crashes it, and returns the config and the captured state —
// leaving a WAL full of records for the corruption tests to damage.
func crashWithLiveLog(t *testing.T, dir string) (Config, [][]byte) {
	t.Helper()
	cfg := recoveryConfig(1, dir)
	cfg.SnapshotEvery = 1000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	driveRounds(t, s, 0, 5)
	s.CrashStop()
	return cfg, shardStates(s)
}

// TestTornTailTolerated: a partial record at the end of the log is the
// signature of dying mid-write; recovery must drop it, restore the state
// of the durable prefix, and keep the log usable.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	cfg, captured := crashWithLiveLog(t, dir)

	walFile := filepath.Join(dir, "shard-0.wal")
	f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header declaring 32 payload bytes, followed by only two:
	// exactly what a crash mid-append leaves behind.
	if _, err := f.Write([]byte{41, 0, 0, 0, 0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	compareStates(t, "torn tail", shardStates(s), captured)

	// The reopened log must keep working past the truncated tail.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	driveRounds(t, s, 5, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after torn-tail recovery: %v", err)
	}
}

// TestTornMidFileRejected: damage with intact records after it is not a
// lost tail but a hole; recovery must refuse the log with a clear error
// instead of silently skipping history.
func TestTornMidFileRejected(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := crashWithLiveLog(t, dir)

	walFile := filepath.Join(dir, "shard-0.wal")
	data, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 64 {
		t.Fatalf("wal only %d bytes; workload too small to corrupt mid-file", len(data))
	}
	data[20] ^= 0xFF // inside the first record's payload, far from the end
	if err := os.WriteFile(walFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := New(cfg); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("recovery from mid-file corruption returned %v, want wal.ErrCorrupt", err)
	}
}

// TestSnapshotsDeepCopy is the aliasing regression test: mutating one
// Snapshots() result must not bleed into later reads.
func TestSnapshotsDeepCopy(t *testing.T) {
	s := startServer(t, testConfig(1))
	ctx := context.Background()
	for i := 1; i <= 4; i++ {
		if err := s.Publish(friendTopic(1), 1, audioItem(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}

	first := s.Snapshots()[0]
	if len(first.DelayBuckets) == 0 {
		t.Fatal("no delay buckets to exercise")
	}
	if len(first.Report.LevelCounts) == 0 {
		t.Fatal("no level counts to exercise; workload delivered nothing")
	}
	first.DelayBuckets[0].Count += 999
	for k := range first.Report.LevelCounts {
		first.Report.LevelCounts[k] += 999
	}

	second := s.Snapshots()[0]
	if second.DelayBuckets[0].Count == first.DelayBuckets[0].Count {
		t.Error("DelayBuckets aliased between Snapshots() reads")
	}
	for k, v := range second.Report.LevelCounts {
		if v == first.Report.LevelCounts[k] {
			t.Errorf("Report.LevelCounts[%d] aliased between Snapshots() reads", k)
		}
	}
}

// TestCrashRecoveryCountsUnenrichable: a publication of a kind no
// generator handles is acknowledged, logged and only then rejected by
// enrichment at the round boundary. It must show up in Dropped — and
// still do so after a crash, where the count comes back through replay.
func TestCrashRecoveryCountsUnenrichable(t *testing.T) {
	cfg := recoveryConfig(1, t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	image := audioItem(1, 99)
	image.Kind = notif.KindImage
	if err := s.Publish(friendTopic(1), 1, image); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d after one unenrichable publish, want 1", got)
	}
	if rep := s.Snapshots()[0].Report; rep.Arrived != 0 {
		t.Fatalf("unenrichable publish arrived at a device: %+v", rep)
	}
	s.CrashStop()

	rec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CrashStop()
	if got := rec.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d after crash recovery, want 1", got)
	}
}

// TestLogPublishZeroAlloc pins the hot-path budget: logging an accepted
// publish reuses the shard's encoder scratch and the writer's buffers,
// so the steady state allocates nothing.
func TestLogPublishZeroAlloc(t *testing.T) {
	cfg := recoveryConfig(1, t.TempDir())
	cfg.WALFsync = wal.SyncRound
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The shard goroutine is never started, so driving the confined
	// durability path from the test goroutine is safe.
	sh := s.shards[0]
	env := envelope{
		topic: friendTopic(1),
		user:  1,
		item:  audioItem(7, 99),
	}
	for i := 0; i < 8; i++ {
		sh.logPublish(env) // warm the encoder and write buffer
	}
	allocs := testing.AllocsPerRun(200, func() {
		sh.logPublish(env)
	})
	if allocs != 0 {
		t.Fatalf("logPublish allocated %.1f objects/op in steady state, want 0", allocs)
	}
	if sh.lastErr != nil {
		t.Fatalf("logPublish error: %v", sh.lastErr)
	}
}
