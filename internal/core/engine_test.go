package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/survey"
	"github.com/richnote/richnote/internal/utility"
	"github.com/richnote/richnote/internal/wal"
)

func testEnricher(t *testing.T) *utility.Enricher {
	t.Helper()
	g, err := media.NewAudioGenerator(media.AudioConfig{Utility: survey.Equation8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := utility.NewEnricher(utility.ConstantScorer{Value: 0.5}, g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// dirtyPub is one addressed publication of a dirtyWorkload.
type dirtyPub struct {
	topic pubsub.TopicID
	user  notif.UserID
	item  notif.Item
}

// genDirtyWorkload builds a seeded bursty script over nUsers users and
// nRounds rounds — pubs[r] is accepted before stepping round r: short
// publish bursts separated by long idle gaps, which is exactly the shape
// where the event-driven loop parks users for many rounds and the lazy
// fast-forward path has real distance to cover.
func genDirtyWorkload(seed int64, nUsers, nRounds int) [][]dirtyPub {
	rng := rand.New(rand.NewSource(seed))
	pubs := make([][]dirtyPub, nRounds)
	id := int64(0)
	r := 0
	for r < nRounds {
		// A burst: 1-3 rounds of publishes to a random handful of users,
		// across all three topic cadences.
		burst := 1 + rng.Intn(3)
		for b := 0; b < burst && r < nRounds; b++ {
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				user := notif.UserID(1 + rng.Intn(nUsers))
				kinds := []notif.TopicKind{notif.TopicFriendFeed, notif.TopicArtistPage, notif.TopicPlaylist}
				k := rng.Intn(3)
				id++
				pubs[r] = append(pubs[r], dirtyPub{
					topic: pubsub.TopicID{Kind: kinds[k], Entity: int64(k + 1)},
					user:  user,
					item:  audioItem(id),
				})
			}
			r++
		}
		// A gap: up to ~12 idle rounds where parked users stay parked.
		r += rng.Intn(13)
	}
	return pubs
}

// emptyDirtyEngine builds the equivalence-test engine with nobody
// registered: faults on (so RNG draw counters and retry state matter) and
// auto-registration on the paper's three-state walk.
func emptyDirtyEngine(t *testing.T) *Engine {
	t.Helper()
	m := network.PaperMatrix()
	return NewEngine(EngineConfig{
		Seed:         42,
		Enricher:     testEnricher(t),
		Faults:       network.FaultConfig{CellLoss: 0.2, CellDisconnect: 0.1},
		AutoRegister: &UserConfig{NetworkMatrix: &m, WeeklyBudgetBytes: 1 << 30},
	})
}

// dirtyEngine pre-registers a mix of strategies on an emptyDirtyEngine.
func dirtyEngine(t *testing.T, fullScan bool) *Engine {
	t.Helper()
	m := network.PaperMatrix()
	e := emptyDirtyEngine(t)
	e.fullScan = fullScan
	for _, cfg := range []UserConfig{
		{User: 1, NetworkMatrix: &m, WeeklyBudgetBytes: 1 << 30},
		{User: 2, NetworkMatrix: &m, Strategy: StrategyFIFO, FixedLevel: 2, WeeklyBudgetBytes: 1 << 30},
		{User: 3, NetworkMatrix: &m, Strategy: StrategyUtil, WeeklyBudgetBytes: 1 << 29},
	} {
		if err := e.AddUser(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func driveDirty(t *testing.T, e *Engine, pubs [][]dirtyPub) {
	t.Helper()
	for r := range pubs {
		for _, p := range pubs[r] {
			if err := e.Accept(p.topic, p.user, p.item); err != nil {
				t.Fatalf("round %d accept: %v", r, err)
			}
		}
		if _, err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

func engineState(t *testing.T, e *Engine) []byte {
	t.Helper()
	var c wal.Codec
	e.StateFields(&c, nil)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c.Bytes()
}

// TestDirtySetEquivalence is the event-driven acceptance test: over
// randomized seeded traces (bursty publishes, long idle gaps, faults on)
// the dirty-set engine must export canonical state byte-identical to the
// every-user reference loop running the same script, and an engine
// restored from those bytes must export them again. (The WAL crash and
// replay leg is server.TestDirtySetEquivalence.)
func TestDirtySetEquivalence(t *testing.T) {
	const nUsers, nRounds = 9, 40
	for _, seed := range []int64{1, 7331, 902245} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pubs := genDirtyWorkload(seed, nUsers, nRounds)
			full, event := dirtyEngine(t, true), dirtyEngine(t, false)
			driveDirty(t, full, pubs)
			driveDirty(t, event, pubs)
			want := engineState(t, full)
			if got := engineState(t, event); !bytes.Equal(got, want) {
				t.Fatalf("event-driven state (%d bytes) differs from the full-scan reference (%d bytes)", len(got), len(want))
			}

			restored := emptyDirtyEngine(t)
			c := wal.DecodeFrom(want)
			restored.StateFields(&c, nil)
			if err := c.Finish("engine state"); err != nil {
				t.Fatal(err)
			}
			if got := engineState(t, restored); !bytes.Equal(got, want) {
				t.Fatal("state restored from the exported bytes exports differently")
			}
		})
	}
}

// TestDirtySetInvariant checks the bookkeeping directly: after every
// round of a bursty run, the live dirty set must cover exactly the
// non-quiescent-or-inboxed users (modulo quiescent stragglers the next
// round will park — those may be in the set but never missing from it).
func TestDirtySetInvariant(t *testing.T) {
	pubs := genDirtyWorkload(99, 6, 25)
	e := dirtyEngine(t, false)
	for r := range pubs {
		for _, p := range pubs[r] {
			if err := e.Accept(p.topic, p.user, p.item); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		marked := 0
		for _, u := range e.order {
			needsStep := !u.dev.Quiescent() || len(u.inbox) > 0
			if needsStep && !u.dirty {
				t.Fatalf("round %d: user %d needs stepping but is parked", r, u.cfg.User)
			}
			if u.dirty {
				marked++
			}
		}
		if len(e.dirty) != marked {
			t.Fatalf("round %d: dirty list (%d) and marks (%d) diverged", r, len(e.dirty), marked)
		}
	}
}

// TestStepDirtyZeroAlloc pins the steady-state allocation budget of the
// event-driven core: with a stable dirty set (always-offline devices
// holding undeliverable queues), stepDirty — catch-up, inbox flush,
// Algorithm 2, aggregate refresh, park/keep bookkeeping — must not
// allocate.
func TestStepDirtyZeroAlloc(t *testing.T) {
	off := network.Matrix{
		{1, 0, 0},
		{1, 0, 0},
		{1, 0, 0},
	}
	e := NewEngine(EngineConfig{Seed: 7, Enricher: testEnricher(t)})
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	for u := notif.UserID(1); u <= 8; u++ {
		err := e.AddUser(UserConfig{User: u, NetworkMatrix: &off, StartState: network.StateOff, WeeklyBudgetBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Accept(topic, u, audioItem(int64(u))); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: flush the staged publications into queues and let every
	// scratch buffer reach steady-state capacity. The devices are
	// permanently offline, so the queues never drain and all 8 users stay
	// dirty forever.
	for i := 0; i < 8; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.dirty) != 8 {
		t.Fatalf("dirty set is %d users, want all 8 (offline devices cannot drain)", len(e.dirty))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.stepDirty(); err != nil {
			t.Fatal(err)
		}
		e.round++
	})
	if allocs != 0 {
		t.Fatalf("stepDirty allocated %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestBytesPerRegisteredUser guards what an idle registered user costs
// in live heap: the HeapAlloc growth across 10,000 AddUser calls, each
// side taken after a GC. A device's random processes hold two-word
// streams by value, so an idle user is about 1.4 KB; a math/rand source
// per process (4.9 KB each) would blow the bound.
func TestBytesPerRegisteredUser(t *testing.T) {
	const users, limit = 10_000, 3_000
	e := NewEngine(EngineConfig{Seed: 1, Enricher: testEnricher(t)})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for u := notif.UserID(1); u <= users; u++ {
		if err := e.AddUser(UserConfig{User: u}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / users
	t.Logf("%d B live heap per registered user", per)
	if per > limit {
		t.Fatalf("%d B live heap per registered user, want ≤ %d", per, limit)
	}
}

// TestStateBytesPerUserBounded guards that encoded shard state is
// O(users), not O(deliveries): 1,000 auto-registered users each take one
// publication a round for 1,000 rounds, and the state's bytes per user at
// round 1,000 may exceed those at round 10 by at most 64. The slack
// covers state that varies but is bounded per user: the presentation
// levels a user has received (at most six) and the queue depth the
// network walk leaves. A collector that kept one delay sample per
// delivery would add 8 B per delivery, about 8 KB per user here.
func TestStateBytesPerUserBounded(t *testing.T) {
	const users, rounds, slack = 1_000, 1_000, 64
	m := network.PaperMatrix()
	e := NewEngine(EngineConfig{
		Seed:         1,
		Enricher:     testEnricher(t),
		AutoRegister: &UserConfig{NetworkMatrix: &m, WeeklyBudgetBytes: 1 << 40},
	})
	topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}
	id := int64(0)
	perUser := func() int {
		return len(engineState(t, e)) / users
	}
	var early int
	for r := 1; r <= rounds; r++ {
		for u := notif.UserID(1); u <= users; u++ {
			id++
			if err := e.Accept(topic, u, audioItem(id)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if r == 10 {
			early = perUser()
		}
	}
	late := perUser()
	delivered := e.Collector().Running().Delivered
	t.Logf("state bytes/user: %d at round 10, %d at round %d (%d deliveries)", early, late, rounds, delivered)
	if late > early+slack {
		t.Fatalf("state grew from %d to %d B/user over %d deliveries, want ≤ %d",
			early, late, delivered, early+slack)
	}
}

// TestEngineBroadcastHasNoEncoding: the state format stores addressed
// subscriptions only, so an engine that holds a broadcast one must refuse
// to encode rather than write bytes that restore to something else.
func TestEngineBroadcastHasNoEncoding(t *testing.T) {
	e := NewEngine(EngineConfig{Enricher: testEnricher(t)})
	if err := e.AddUser(UserConfig{User: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Subscribe(1, pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: 1}, 1); err != nil {
		t.Fatal(err)
	}
	var c wal.Codec
	e.StateFields(&c, nil)
	if c.Err() == nil {
		t.Fatal("an engine with a broadcast subscription encoded without error")
	}
}
