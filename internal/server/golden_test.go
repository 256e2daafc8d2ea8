package server

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/wal"
)

// The files under testdata/golden pin every byte string this package
// writes to disk or to the wire: both WAL record payloads, a full
// snapshot, and the payload of every cluster frame. They were generated
// by the hand-mirrored encodeX/decodeX pairs that preceded the Fields
// functions, so a codec change is format-preserving exactly when these
// files do not move. Every encoded field holds a distinct non-zero value,
// so two fields swapped in a description show up as a byte difference.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

// golden compares got with testdata/golden/<name> and returns the file's
// bytes.
func golden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		t.Errorf("%s: wrote %d bytes, golden file holds %d; first difference at offset %d", name, len(got), len(want), at)
	}
	return want
}

// vals hands out strictly increasing values, so everything drawn from one
// vals is pairwise distinct and non-zero.
type vals struct{ n int64 }

func (v *vals) i64() int64    { v.n++; return v.n }
func (v *vals) int() int      { return int(v.i64()) }
func (v *vals) u64() uint64   { return uint64(v.i64()) }
func (v *vals) f64() float64  { return float64(v.i64()) + 0.25 }
func (v *vals) unit() float64 { return float64(v.i64()) / 4096 } // in (0, 1), increasing
func (v *vals) str() string   { return fmt.Sprintf("golden-%d", v.i64()) }
func (v *vals) time() time.Time {
	n := v.i64()
	return time.Unix(1_420_070_400+n, n).UTC()
}

func (v *vals) item() notif.Item {
	return notif.Item{
		ID:        notif.ItemID(v.i64()),
		Kind:      notif.ContentKind(v.i64()),
		Topic:     notif.TopicKind(v.i64()),
		Sender:    notif.UserID(v.i64()),
		Recipient: notif.UserID(v.i64()),
		CreatedAt: v.time(),
		Meta: notif.Metadata{
			TrackID:          v.i64(),
			AlbumID:          v.i64(),
			ArtistID:         v.i64(),
			TrackPopularity:  v.f64(),
			AlbumPopularity:  v.f64(),
			ArtistPopularity: v.f64(),
			Genre:            v.int(),
			URL:              v.str(),
		},
		TieStrength: v.f64(),
	}
}

func (v *vals) envelope() envelope {
	return envelope{
		topic: pubsub.TopicID{Kind: notif.TopicKind(v.i64()), Entity: v.i64()},
		user:  notif.UserID(v.i64()),
		item:  v.item(),
	}
}

// queued builds a valid two-level queue entry (levels 1..2, sizes and
// utilities increasing) — Device.RestoreState validates the ladder.
func (v *vals) queued() sched.Queued {
	q := sched.Queued{}
	q.Rich.Item = v.item()
	q.Rich.ContentUtility = v.unit()
	for level := 1; level <= 2; level++ {
		q.Rich.Presentations = append(q.Rich.Presentations, notif.Presentation{
			Level:        level,
			Size:         v.i64(),
			Utility:      v.unit(),
			DurationSec:  v.f64(),
			SampleRateHz: v.int(),
			BitrateKbps:  v.int(),
			Label:        v.str(),
		})
	}
	q.Rich.ArrivedRound = v.int()
	q.Clicked = true
	q.ClickRound = v.int()
	q.TrueUc = v.f64()
	q.Attempts = v.int()
	q.LevelCap = v.int()
	return q
}

func (v *vals) delivery() notif.Delivery {
	return notif.Delivery{
		ItemID:         notif.ItemID(v.i64()),
		Recipient:      notif.UserID(v.i64()),
		Level:          v.int(),
		Size:           v.i64(),
		Utility:        v.f64(),
		TrueUtility:    v.f64(),
		EnergyJ:        v.f64(),
		Retries:        v.int(),
		Degraded:       true,
		ArrivedRound:   v.int(),
		DeliveredRound: v.int(),
		DeliveredAt:    v.time(),
	}
}

func (v *vals) userMetrics(u notif.UserID) metrics.UserState {
	return metrics.UserState{
		User:                 u,
		Arrived:              v.int(),
		ClickedTotal:         v.int(),
		Delivered:            v.int(),
		DeliveredBytes:       v.i64(),
		UtilitySum:           v.f64(),
		TrueUtilitySum:       v.f64(),
		ClickedAndDelivered:  v.int(),
		DeliveredBeforeClick: v.int(),
		EnergyJ:              v.f64(),
		DelayRoundsSum:       v.int(),
		LevelCounts:          []metrics.LevelCount{{Level: v.int(), Count: v.int()}, {Level: v.int(), Count: v.int()}},
		TransferFailures:     v.int(),
		RetriedDeliveries:    v.int(),
		DegradedDeliveries:   v.int(),
		Dropped:              v.int(),
		WastedEnergyJ:        v.f64(),
	}
}

func (v *vals) deviceState(round int, controller bool, queue int, net network.State) sched.DeviceState {
	s := sched.DeviceState{NetworkState: net, NextRound: round, HasController: controller}
	for i := 0; i < queue; i++ {
		s.Queue = append(s.Queue, v.queued())
	}
	s.BudgetBase = v.f64()
	s.BudgetPendingRounds = v.i64()
	s.BudgetRefunded = v.f64()
	s.BudgetDebited = v.f64() // refunds never exceed debits
	s.BatteryLevel = v.unit()
	s.BatteryDraws = v.u64()
	s.NetworkDraws = v.u64()
	s.FaultDraws = v.u64()
	if controller {
		s.Controller = lyapunov.State{
			Q: v.f64(), P: v.f64(), MaxQ: v.f64(), SumQ: v.f64(),
			Rounds: v.int(), DriftSum: v.f64(), LastL: v.f64(), Initialized: true,
		}
	}
	return s
}

// goldenShardState is the whole golden shard in the plain exported forms
// the snapshot stores: two users (one RichNote with a controller, one
// FIFO baseline), a non-empty device queue on each, an inbox backlog, two
// broker pending buffers, collector counters and feeds.
type goldenShardState struct {
	round                  int
	backpressured, dropped uint64
	lastSeq                uint64
	users                  []core.UserState
	inbox                  []core.UserQueue
	broker                 core.BrokerState
	collector              metrics.CollectorState
	feeds                  []userFeed
}

// goldenStateFields is the test's own description of the v2 state
// payload, unit by unit over plain structs: the layout shard.stateFields
// must produce from, and rebuild into, a live engine.
func goldenStateFields(c *wal.Codec, st *goldenShardState) {
	wal.Int(c, &st.round)
	c.U64(&st.backpressured)
	c.U64(&st.dropped)
	wal.Slice(c, &st.users, 8, "users", core.UserStateFields)
	wal.Slice(c, &st.inbox, 12, "inbox users", core.UserQueueFields)
	core.BrokerStateFields(c, &st.broker)
	core.CollectorStateFields(c, &st.collector)
	wal.Slice(c, &st.feeds, 12, "feed users", userFeedFields)
}

func goldenConfig(walDir string) Config {
	return Config{
		Shards:   1,
		Seed:     0x5eed0123456789,
		WALDir:   walDir,
		WALFsync: wal.SyncNever,
		Faults:   network.FaultConfig{CellLoss: 0.125, WifiLoss: 0.0625, CellDisconnect: 0.25, WifiDisconnect: 0.03125},
	}
}

func goldenState() goldenShardState {
	v := &vals{n: 100}
	const u1, u2 notif.UserID = 11, 12
	topicA := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: v.i64()}
	topicB := pubsub.TopicID{Kind: notif.TopicArtistPage, Entity: v.i64()}
	m1 := network.Matrix{{0.5, 0.3, 0.2}, {0.1, 0.65, 0.25}, {0.15, 0.45, 0.4}}
	m2 := network.Matrix{{0.55, 0.35, 0.1}, {0.05, 0.7, 0.25}, {0.2, 0.45, 0.35}}

	st := goldenShardState{
		round:         v.int(),
		backpressured: v.u64(),
		dropped:       v.u64(),
		lastSeq:       v.u64(),
	}
	st.users = []core.UserState{{
		Cfg: UserConfig{
			User: u1, Strategy: core.StrategyRichNote, FixedLevel: v.int(), WeeklyBudgetBytes: v.i64(),
			V: v.f64(), KappaJ: v.f64(), NetworkMatrix: &m1, StartState: network.StateCell,
			MaxDeliveriesPerRound: v.int(), MaxAttempts: v.int(), DegradeOnFailure: true,
		},
		Topics: []pubsub.TopicID{topicA, topicB},
		Device: v.deviceState(st.round, true, 2, network.StateWifi),
	}, {
		Cfg: UserConfig{
			User: u2, Strategy: core.StrategyFIFO, FixedLevel: v.int(), WeeklyBudgetBytes: v.i64(),
			V: v.f64(), KappaJ: v.f64(), NetworkMatrix: &m2, StartState: network.StateWifi,
			MaxDeliveriesPerRound: v.int(), MaxAttempts: v.int(), DegradeOnFailure: true,
		},
		Topics: []pubsub.TopicID{topicB},
		Device: v.deviceState(st.round, false, 1, network.StateOff),
	}}
	st.inbox = []core.UserQueue{{User: u2, Items: []sched.Queued{v.queued()}}}
	st.broker = core.BrokerState{
		Published: v.u64(),
		Delivered: v.u64(),
		Pending: []core.PendingState{
			{Topic: topicA, User: u1, Items: []notif.Item{v.item(), v.item()}},
			{Topic: topicB, User: u2, Items: []notif.Item{v.item()}},
		},
	}
	st.collector = metrics.CollectorState{
		Users: []metrics.UserState{v.userMetrics(u1), v.userMetrics(u2)},
		Delays: []metrics.DelayCount{
			{Delay: v.int(), Count: v.int()}, {Delay: v.int(), Count: v.int()}, {Delay: v.int(), Count: v.int()},
		},
	}
	st.feeds = []userFeed{
		{User: u1, Deliveries: []notif.Delivery{v.delivery(), v.delivery()}},
		{User: u2, Deliveries: []notif.Delivery{v.delivery()}},
	}
	return st
}

// install restores a goldenShardState into a freshly built, never-started
// shard — the engine's users, subscriptions, devices, inboxes, broker and
// collector through the same walk recovery uses.
func (st goldenShardState) install(t *testing.T, sh *shard) {
	t.Helper()
	c := wal.DecodeFrom(wal.Marshal(goldenStateFields, &st))
	sh.stateFields(&c)
	if err := c.Finish("golden state"); err != nil {
		t.Fatal(err)
	}
	// The snapshot header records the log sequence it supersedes; reopen
	// the (empty) log so that number is a distinctive one.
	if err := sh.log.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenWriter(sh.walPath(), 0, st.lastSeq, sh.srv.cfg.WALFsync)
	if err != nil {
		t.Fatal(err)
	}
	sh.log = log
}

// check asserts a recovered shard holds exactly the golden state, unit
// by unit in the plain exported forms.
func (st goldenShardState) check(t *testing.T, sh *shard) {
	t.Helper()
	got := goldenShardState{lastSeq: st.lastSeq}
	if err := wal.Unmarshal(goldenStateFields, sh.stateBytes(), "recovered state", &got); err != nil {
		t.Fatal(err)
	}
	if got.round != st.round || got.backpressured != st.backpressured || got.dropped != st.dropped {
		t.Errorf("recovered round/backpressured/dropped = %d/%d/%d, want %d/%d/%d",
			got.round, got.backpressured, got.dropped, st.round, st.backpressured, st.dropped)
	}
	if len(got.users) != len(st.users) {
		t.Fatalf("recovered %d users, want %d", len(got.users), len(st.users))
	}
	for i, u := range st.users {
		if !reflect.DeepEqual(got.users[i], u) {
			t.Errorf("user %d recovered as %+v, want %+v", u.Cfg.User, got.users[i], u)
		}
		if feed := sh.Deliveries(u.Cfg.User); !reflect.DeepEqual(feed, st.feeds[i].Deliveries) {
			t.Errorf("user %d feed recovered as %+v, want %+v", u.Cfg.User, feed, st.feeds[i].Deliveries)
		}
	}
	if !reflect.DeepEqual(got.inbox, st.inbox) {
		t.Errorf("inbox recovered as %+v, want %+v", got.inbox, st.inbox)
	}
	if !reflect.DeepEqual(got.broker, st.broker) {
		t.Errorf("broker recovered as %+v, want %+v", got.broker, st.broker)
	}
	if !reflect.DeepEqual(got.collector, st.collector) {
		t.Errorf("collector recovered as %+v, want %+v", got.collector, st.collector)
	}
	if sh.eng.Round() != st.round || sh.eng.Stats().Users != len(st.users) {
		t.Errorf("engine at round %d with %d users, want %d with %d", sh.eng.Round(), sh.eng.Stats().Users, st.round, len(st.users))
	}
}

// TestGoldenSnapshot pins the v3 snapshot file: the golden shard must
// snapshot to exactly the golden bytes, and a server recovering from the
// golden bytes must hold exactly the golden shard and re-compact to the
// same file.
func TestGoldenSnapshot(t *testing.T) {
	st := goldenState()

	dir := t.TempDir()
	s, err := New(goldenConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	st.install(t, sh)
	if err := sh.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sh.snapPath())
	if err != nil {
		t.Fatal(err)
	}
	want := golden(t, "shard-0.snap", got)
	state := sh.stateBytes()
	s.CrashStop()

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-0.snap"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := New(goldenConfig(dir))
	if err != nil {
		t.Fatalf("recovering from the golden snapshot: %v", err)
	}
	defer rec.CrashStop()
	rsh := rec.shards[0]
	st.check(t, rsh)
	if !bytes.Equal(rsh.stateBytes(), state) {
		t.Errorf("state recovered from the golden snapshot differs from the state that wrote it")
	}
	// New re-compacts after recovery; with an empty log the fresh snapshot
	// supersedes the same sequence number, so the file must not move.
	again, err := os.ReadFile(rsh.snapPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("snapshot re-compacted after recovery differs from the golden snapshot")
	}
}

// TestSnapshotRefusesOldVersions: a v2 snapshot's draw counts index the
// re-seeded math/rand sources devices no longer draw from, and a v3
// snapshot stores one raw delay sample per delivery where v4 stores
// per-delay counts, so recovery must refuse both by version instead of
// continuing on different randomness or misreading the collector.
func TestSnapshotRefusesOldVersions(t *testing.T) {
	snap, err := os.ReadFile(filepath.Join("testdata", "golden", "shard-0.snap"))
	if err != nil {
		t.Fatal(err)
	}
	c := wal.DecodeFrom(snap)
	var h snapHeader
	snapHeaderFields(&c, &h)
	if c.Err() != nil || h.Version != snapVersion {
		t.Fatalf("golden header %+v (err %v), want version %d", h, c.Err(), snapVersion)
	}
	hdrLen := len(wal.Marshal(snapHeaderFields, &h))
	for _, version := range []uint32{2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			h.Version = version
			old := append(wal.Marshal(snapHeaderFields, &h), snap[hdrLen:len(snap)-4]...)
			crc := crc32.ChecksumIEEE(old)
			old = append(old, wal.Marshal(func(c *wal.Codec, v *uint32) { c.U32(v) }, &crc)...)

			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "shard-0.snap"), old, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New(goldenConfig(dir))
			if err == nil {
				s.CrashStop()
				t.Fatalf("recovered from a v%d snapshot", version)
			}
			if want := fmt.Sprintf("unsupported version %d", version); !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d snapshot refused with %v, want an unsupported-version error", version, err)
			}
		})
	}
}

// TestGoldenRecords pins the payloads of both WAL record types, read back
// out of a real shard log.
func TestGoldenRecords(t *testing.T) {
	v := &vals{n: 100}
	env := v.envelope()
	round := v.int()

	s, err := New(goldenConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.CrashStop()
	sh := s.shards[0]
	sh.logPublish(env)
	sh.logRound(round) // round+1 is off the SnapshotEvery grid: commits, no compaction
	if err := sh.log.Sync(); err != nil {
		t.Fatal(err)
	}
	payloads := map[byte][]byte{}
	if _, err := wal.ReplayFile(sh.walPath(), func(_ uint64, typ byte, payload []byte) error {
		payloads[typ] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 {
		t.Fatalf("log holds record types %v, want one publish and one round record", payloads)
	}

	var gotEnv envelope
	if err := wal.Unmarshal(envelopeFields, golden(t, "rec_publish.bin", payloads[recPublish]), "publish record", &gotEnv); err != nil || !reflect.DeepEqual(gotEnv, env) {
		t.Errorf("golden publish record decoded to %+v (err %v), want %+v", gotEnv, err, env)
	}
	var gotRound int
	if err := wal.Unmarshal(roundFields, golden(t, "rec_round.bin", payloads[recRound]), "round record", &gotRound); err != nil || gotRound != round {
		t.Errorf("golden round record decoded to %d (err %v), want %d", gotRound, err, round)
	}
}

// codecCase is one described type with a golden value: its encoding, and
// a decode-then-re-encode of arbitrary bytes. file names the golden file
// holding the encoding, for the types that are a whole frame payload.
type codecCase struct {
	name   string
	file   string
	want   any
	encode func() []byte
	decode func(b []byte) (v any, reencoded []byte, err error)
}

func caseOf[T any](name, file string, fields func(*wal.Codec, *T), v T) codecCase {
	return codecCase{
		name:   name,
		file:   file,
		want:   v,
		encode: func() []byte { return wal.Marshal(fields, &v) },
		decode: func(b []byte) (any, []byte, error) {
			var got T
			if err := wal.Unmarshal(fields, b, name, &got); err != nil {
				return nil, nil, err
			}
			return got, wal.Marshal(fields, &got), nil
		},
	}
}

// codecCases lists every Fields function that describes a whole payload
// or a whole unit of the snapshot (the rest are reached through these).
// The frame values are drawn in the order the golden files were written.
func codecCases() []codecCase {
	v := &vals{n: 100}
	env := v.envelope()
	outcome := publishOutcome{status: byte(v.i64()), retryAfter: v.int(), mapVer: v.u64(), errText: v.str()}
	deliveries := deliveriesReq{User: notif.UserID(v.i64())}
	delivered := deliveriesResp{Owned: true, Deliveries: []notif.Delivery{v.delivery(), v.delivery()}}
	tick := tickResp{Shards: []shardRound{{Shard: v.int()}, {Shard: v.int()}}}
	tick.Shards[0].Round, tick.Shards[1].Round = v.int(), v.int()
	health := nodeHealth{Name: v.str(), Role: v.str(), MapVersion: v.u64(), Shards: []shardRound{{Shard: v.int()}, {Shard: v.int()}}}
	health.Shards[0].Round, health.Shards[1].Round = v.int(), v.int()
	health.Users, health.QueueDepth, health.Errs = v.int(), v.int(), []string{v.str(), v.str()}
	ack := mapAck{Version: v.u64()}
	shard := shardReq{Shard: v.int()}
	frozen := frozenShard{Snap: []byte(v.str()), State: []byte(v.str())}
	stats := nodeStats{
		Report: metrics.Report{
			Users: v.int(), Arrived: v.int(), ClickedTotal: v.int(), Delivered: v.int(), DeliveredBytes: v.i64(),
			UtilitySum: v.f64(), TrueUtilitySum: v.f64(), ClickedAndDelivered: v.int(), DeliveredBeforeClick: v.int(),
			EnergyJ: v.f64(), DelayRoundsSum: v.int(), LevelCounts: map[int]int{v.int(): v.int(), v.int(): v.int()},
			TransferFailures: v.int(), RetriedDeliveries: v.int(), DegradedDeliveries: v.int(), Dropped: v.int(),
			WastedEnergyJ: v.f64(), DelayP50Rounds: v.f64(), DelayP95Rounds: v.f64(),
		},
		DelayBuckets:  []metrics.Bucket{{UpperBound: v.f64(), Count: v.u64()}, {UpperBound: v.f64(), Count: v.u64()}},
		Backpressured: v.u64(),
		Dropped:       v.u64(),
	}
	jreq := joinReq{Name: v.str(), Addr: v.str(), Shards: v.int(), WALDir: v.str()}
	jresp := joinResp{Status: byte(v.i64()), MapVersion: v.u64(), ErrText: v.str()}
	name := pong{Name: v.str()}

	st := goldenState()
	cfg := goldenConfig("")
	return []codecCase{
		caseOf("pong", "frame_pong.bin", pongFields, name),
		caseOf("publish request", "frame_publish.bin", envelopeFields, env),
		caseOf("publish response", "frame_publish_resp.bin", publishOutcomeFields, outcome),
		caseOf("deliveries request", "frame_deliveries.bin", deliveriesReqFields, deliveries),
		caseOf("deliveries response", "frame_deliveries_resp.bin", deliveriesRespFields, delivered),
		caseOf("tick response", "frame_tick_resp.bin", tickRespFields, tick),
		caseOf("health response", "frame_health_resp.bin", nodeHealthFields, health),
		caseOf("map ack", "frame_map_ack.bin", mapAckFields, ack),
		caseOf("freeze request", "frame_freeze.bin", shardReqFields, shard),
		caseOf("freeze response", "frame_freeze_resp.bin", frozenShardFields, frozen),
		caseOf("adopt request (from WAL)", "frame_adopt_wal.bin", adoptReqFields, adoptReq{Shard: shard.Shard, Mode: adoptFromWAL}),
		caseOf("adopt request (bytes)", "frame_adopt_bytes.bin", adoptReqFields, adoptReq{Shard: shard.Shard, Mode: adoptBytes, Snap: frozen.Snap}),
		caseOf("adopt response", "frame_adopt_resp.bin", shardStateRespFields, shardStateResp{State: frozen.State}),
		caseOf("shard state request", "frame_shard_state.bin", shardReqFields, shard),
		caseOf("shard state response", "frame_shard_state_resp.bin", shardStateRespFields, shardStateResp{State: frozen.State}),
		caseOf("stats response", "frame_stats_resp.bin", nodeStatsFields, stats),
		caseOf("join request", "frame_join.bin", joinReqFields, jreq),
		caseOf("join response", "frame_join_resp.bin", joinRespFields, jresp),

		caseOf("round record", "", roundFields, st.round),
		caseOf("snapshot header", "", snapHeaderFields, snapHeader{
			Magic: snapMagic, Version: snapVersion, Shard: v.int(), Seed: cfg.Seed, Faults: cfg.Faults, LastSeq: st.lastSeq,
		}),
		caseOf("snapshot user", "", core.UserStateFields, st.users[0]),
		caseOf("snapshot inbox", "", core.UserQueueFields, st.inbox[0]),
		caseOf("snapshot broker", "", core.BrokerStateFields, st.broker),
		caseOf("snapshot collector", "", core.CollectorStateFields, st.collector),
		caseOf("snapshot feed", "", userFeedFields, st.feeds[0]),
	}
}

// TestGoldenFrames pins the payload of every cluster frame type: the
// golden value encodes to the golden file, the golden file decodes to the
// golden value, and one byte appended makes it an error. (The map update
// frame's payload is cluster.Map's encoding, pinned in that package; ping,
// tick, health and stats requests carry no payload.)
func TestGoldenFrames(t *testing.T) {
	for _, c := range codecCases() {
		enc := c.encode()
		if c.file != "" {
			enc = golden(t, c.file, enc)
		}
		got, reenc, err := c.decode(enc)
		if err != nil || !reflect.DeepEqual(got, c.want) || !bytes.Equal(reenc, enc) {
			t.Errorf("%s decoded to %+v (err %v), want %+v", c.name, got, err, c.want)
		}
		if _, _, err := c.decode(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Errorf("%s decoded cleanly with a trailing byte", c.name)
		}
		if len(enc) > 0 {
			if _, _, err := c.decode(enc[:len(enc)-1]); err == nil {
				t.Errorf("%s decoded cleanly with its last byte missing", c.name)
			}
		}
	}
}

// TestGoldenFramesServed drives the golden requests through a live node:
// Node.ServeFrame must accept them and answer in the golden layouts.
func TestGoldenFramesServed(t *testing.T) {
	s, err := New(goldenConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.CrashStop()
	n := NewNode("golden-node", s)

	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var name pong
	if typ, resp, err := n.ServeFrame(FramePing, nil); err != nil || typ != FramePong {
		t.Fatalf("ping: type %d, %v", typ, err)
	} else if err := wal.Unmarshal(pongFields, resp, "pong", &name); err != nil || name.Name != "golden-node" {
		t.Errorf("pong decoded to %+v, %v", name, err)
	}
	var ds deliveriesResp
	if typ, resp, err := n.ServeFrame(FrameDeliveries, read("frame_deliveries.bin")); err != nil || typ != FrameDeliveriesResp {
		t.Fatalf("golden deliveries request: type %d, %v", typ, err)
	} else if err := wal.Unmarshal(deliveriesRespFields, resp, "deliveries response", &ds); err != nil || !ds.Owned || len(ds.Deliveries) != 0 {
		t.Errorf("deliveries response decoded to %+v, %v; want owned and empty", ds, err)
	}
	// The golden shard id is far outside this one-shard server, so the
	// shard requests must decode cleanly and fail on range, not on format.
	for name, typ := range map[string]byte{
		"frame_freeze.bin": FrameFreeze, "frame_adopt_wal.bin": FrameAdopt,
		"frame_adopt_bytes.bin": FrameAdopt, "frame_shard_state.bin": FrameShardState,
	} {
		_, _, err := n.ServeFrame(typ, read(name))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: served with %v, want a shard-out-of-range error", name, err)
		}
	}
}
