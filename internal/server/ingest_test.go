package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/wal"
)

// TestIngestIdleSlotsAllocateNothing pins that a shard's ingest queue
// reserves nothing up front: a node with eight shard slots and a 65,536
// envelope bound owns none of them (or owns them all but receives
// nothing), and its live heap grows by less than 2 MiB. A buffer sized to
// the bound would hold about 10 MiB per slot.
func TestIngestIdleSlotsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owned []int
	}{
		{"unowned", []int{}},
		{"owned idle", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(8)
			cfg.IngestBuffer = 1 << 16
			cfg.WALDir = t.TempDir()
			cfg.OwnedShards = tc.owned
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
				t.Errorf("New with 8 idle slots grew the live heap by %.1f MiB, want < 2 MiB", float64(grew)/(1<<20))
			}
		})
	}
}

// TestIngestDepthZeroMeansLogged pins what richnote_shard_ingest_depth
// reading 0 promises: every publish acknowledged before the read is
// already in the log (fsynced under wal.SyncAlways, so it can be read back
// from the file while the shard runs) and handed to the engine, so the
// next round counts each one in richnote_notifications_arrived_total. The
// gauge is scraped while publishers run, so it often reads 0 while the
// shard goroutine is busy with the envelope it last took; a depth that
// dropped at the take, rather than once accept returned, fails here.
func TestIngestDepthZeroMeansLogged(t *testing.T) {
	cfg := testConfig(2)
	cfg.WALDir = t.TempDir()
	cfg.WALFsync = wal.SyncAlways
	s := startServer(t, cfg)
	h := s.Handler()
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	logged := func() int64 {
		n := int64(0)
		for _, sh := range s.shards {
			if _, err := wal.ReplayFile(sh.walPath(), func(_ uint64, typ byte, _ []byte) error {
				if typ == recPublish {
					n++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	const publishers, each = 2, 200
	var acked atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := p*each + i + 1
				if err := s.Publish(friendTopic(1), notif.UserID(id%7+1), audioItem(id, 99)); err != nil {
					t.Errorf("publish %d: %v", id, err)
					return
				}
				acked.Add(1)
				time.Sleep(50 * time.Microsecond) // let the shard catch up, so depth keeps touching 0
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	zeros := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		before := acked.Load()
		if metricSum(t, scrape(), "richnote_shard_ingest_depth") != 0 {
			if finished {
				finished = false // publishers are done; wait for the backlog
			}
			runtime.Gosched()
			continue
		}
		zeros++
		if got := logged(); got < before {
			t.Fatalf("depth read 0 with %d publishes in the logs, but %d were acknowledged before the read", got, before)
		}
	}
	if got := logged(); got != acked.Load() {
		t.Fatalf("%d publishes logged, want all %d acknowledged", got, acked.Load())
	}
	if err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := metricSum(t, scrape(), "richnote_notifications_arrived_total"); got != float64(acked.Load()) {
		t.Errorf("arrived_total = %v after a round, want %d", got, acked.Load())
	}
	t.Logf("depth read 0 on %d scrapes", zeros)
}

// TestFreezeShardKeepsEveryAckedPublish races publishers against planned
// handoffs: every Publish that returned nil must be in the state the
// freeze ships. The slot is adopted back from the frozen snapshot bytes
// after each freeze (the rollback path). Each accepted envelope is either
// still broker-pending in the restored state or counted as arrived by an
// earlier round, so the two must sum to the publishes acknowledged so
// far; a round after each check keeps the shipped state small.
func TestFreezeShardKeepsEveryAckedPublish(t *testing.T) {
	cfg := testConfig(1)
	cfg.WALDir = t.TempDir()
	s := startServer(t, cfg)
	// More Ps than cores lets the OS preempt a publisher anywhere between
	// its ownership check and its append: the window a freeze must close.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(1))
	const publishers = 4
	iterations := 100
	if testing.Short() {
		iterations = 10
	}
	var acked atomic.Int64
	var nextID atomic.Int64
	for it := 0; it < iterations; it++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					id := int(nextID.Add(1))
					err := s.Publish(friendTopic(1), notif.UserID(id%5+1), audioItem(id, 99))
					switch {
					case err == nil:
						acked.Add(1)
					case errors.Is(err, ErrNotOwner):
						return
					case !errors.Is(err, ErrBackpressure):
						t.Errorf("publish %d: %v", id, err)
						return
					}
				}
			}()
		}
		close(start)
		for spin := rng.Intn(200); spin > 0; spin-- {
			runtime.Gosched()
		}
		snap, state, err := s.FreezeShard(0)
		if err != nil {
			t.Fatalf("iteration %d: freeze: %v", it, err)
		}
		wg.Wait()
		if err := s.AdoptShardBytes(0, snap); err != nil {
			t.Fatalf("iteration %d: adopt: %v", it, err)
		}
		if got := s.AdoptedState(0); !reflect.DeepEqual(got, state) {
			t.Fatalf("iteration %d: adopted state differs from the frozen state", it)
		}
		sn := s.Snapshots()[0]
		if got, want := int64(sn.Report.Arrived+sn.BrokerPending)+int64(sn.Dropped), acked.Load(); got != want {
			t.Fatalf("iteration %d: frozen state holds %d publishes, want all %d acknowledged", it, got, want)
		}
		if err := s.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFeedRingKeepsNewest pins the recent-delivery ring against the whole
// delivery history: after any number of deliveries, flushed a round at a
// time, Deliveries returns the newest RecentDeliveries entries, newest
// last, and the feed section of the shard state round-trips to the same
// feed, wrapped or not.
func TestFeedRingKeepsNewest(t *testing.T) {
	for _, limit := range []int{1, 3, 32} {
		cfg := testConfig(1)
		cfg.RecentDeliveries = limit
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := s.shards[0]
		const user = notif.UserID(7)
		var all []notif.Delivery
		for n := 1; n <= 3*limit+2; n++ {
			d := notif.Delivery{ItemID: notif.ItemID(n), Recipient: user, Level: n % 4}
			all = append(all, d)
			sh.pendingFeed = append(sh.pendingFeed, d)
			if n%2 == 1 && n < 3*limit+2 {
				continue // flush two rounds' worth at a time, as a round does
			}
			sh.flushFeeds()
			want := all[max(len(all)-limit, 0):]
			if got := sh.Deliveries(user); !reflect.DeepEqual(got, want) {
				t.Fatalf("limit %d after %d deliveries: feed %v, want %v", limit, n, got, want)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := wal.DecodeFrom(sh.stateBytes())
			fresh.shards[0].stateFields(&c)
			if err := c.Finish("shard state"); err != nil {
				t.Fatal(err)
			}
			if got := fresh.shards[0].Deliveries(user); !reflect.DeepEqual(got, want) {
				t.Fatalf("limit %d after %d deliveries: restored feed %v, want %v", limit, n, got, want)
			}
		}
	}
}

// TestIngestQueueWakesOnce pins the wake protocol: a burst of pushes into
// an empty queue leaves one token, a take returns the burst in push
// order, and depth keeps counting a taken batch until it is accepted.
func TestIngestQueueWakesOnce(t *testing.T) {
	q := ingestQueue{wake: make(chan struct{}, 1)}
	for i := 1; i <= 3; i++ {
		if err := q.push(envelope{user: notif.UserID(i)}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push(envelope{user: 4}, 3); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("push over high water: %v, want ErrBackpressure", err)
	}
	if len(q.wake) != 1 {
		t.Fatalf("wake holds %d tokens, want 1", len(q.wake))
	}
	<-q.wake
	batch := q.take()
	for i, env := range batch {
		if env.user != notif.UserID(i+1) {
			t.Fatalf("batch[%d] is user %d, want %d", i, env.user, i+1)
		}
	}
	if q.depth.Load() != 3 {
		t.Fatalf("depth %d after take, want 3 until accepted", q.depth.Load())
	}
	if err := q.push(envelope{user: 5}, 3); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("push while a taken batch is unaccepted: %v, want ErrBackpressure", err)
	}
	q.depth.Add(-3)
	clear(batch)
	if err := q.push(envelope{user: 6}, 3); err != nil {
		t.Fatal(err)
	}
	if len(q.wake) != 1 {
		t.Fatal("push into an empty queue did not wake the shard")
	}
	q.setClosed(true)
	if err := q.push(envelope{user: 7}, 3); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("push after close: %v, want ErrNotOwner", err)
	}
	if got := q.take(); len(got) != 1 || got[0].user != 6 {
		t.Fatalf("take after close returned %v, want the one envelope pushed before it", got)
	}
}
