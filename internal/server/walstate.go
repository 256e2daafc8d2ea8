package server

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/wal"
)

// Per-shard durability (DESIGN.md §12). Two files per shard under
// Config.WALDir:
//
//   - shard-<id>.wal — append-only log of accepted publishes (recPublish)
//     and completed rounds (recRound), framed by internal/wal.
//   - shard-<id>.snap — the latest compacted snapshot: a header binding it
//     to this shard and configuration, the log sequence number it
//     supersedes, the full canonical shard state, and a trailing CRC.
//
// Recovery loads the snapshot, replays log records with seq beyond the
// snapshot's, truncates any torn tail, and rewrites a fresh snapshot so a
// crash loop never re-replays unbounded history. Replay re-runs the exact
// code paths of the original run (accept, runRound) on re-seeded RNG
// streams fast-forwarded to their snapshotted draw counts, which is what
// makes the recovered state bit-identical rather than merely equivalent.
//
// Every byte string here is defined by one Fields function run in either
// direction (wal.Codec); testdata/golden pins the resulting formats.

// WAL record types.
const (
	recPublish byte = 1
	recRound   byte = 2
)

// Snapshot header framing.
const (
	snapMagic = "RNSNAP"
	// snapVersion 2: DeviceState's materialized BudgetBalance became the
	// lazy (BudgetBase, BudgetPendingRounds) pair and gained NextRound, so
	// a recovered device materializes accrual at the same future operation
	// the crashed one would have — a bit-identity requirement, not just a
	// format change. v1 snapshots are not readable.
	snapVersion = 2
)

func (sh *shard) walPath() string {
	return filepath.Join(sh.srv.cfg.WALDir, fmt.Sprintf("shard-%d.wal", sh.id))
}

func (sh *shard) snapPath() string {
	return filepath.Join(sh.srv.cfg.WALDir, fmt.Sprintf("shard-%d.snap", sh.id))
}

// logPublish appends one accepted publication to the shard log. Called at
// the top of accept outside replay; the encoder and the writer's own
// scratch are reused, so the steady-state append allocates nothing.
//
// richnote:allocfree
func (sh *shard) logPublish(env envelope) {
	sh.walEnc.Reset()
	envelopeFields(&sh.walEnc, &env)
	if _, err := sh.log.Append(recPublish, sh.walEnc.Bytes()); err != nil {
		sh.lastErr = fmt.Errorf("server: wal: %w", err)
	}
}

// roundFields describes the recRound payload: the index of the round that
// just completed.
func roundFields(c *wal.Codec, completed *int) { wal.Int(c, completed) }

// logRound appends the just-completed round index and either compacts into
// a snapshot (every SnapshotEvery rounds) or commits the round boundary
// per the fsync policy.
func (sh *shard) logRound(completed int) {
	sh.walEnc.Reset()
	roundFields(&sh.walEnc, &completed)
	if _, err := sh.log.Append(recRound, sh.walEnc.Bytes()); err != nil {
		sh.lastErr = fmt.Errorf("server: wal: %w", err)
		return
	}
	if every := sh.srv.cfg.SnapshotEvery; every > 0 && sh.round%every == 0 {
		if err := sh.writeSnapshot(); err != nil {
			sh.lastErr = err
			// Snapshot failed: fall back to syncing the log so this round
			// is durable the replay way.
			if serr := sh.log.Sync(); serr != nil {
				sh.lastErr = fmt.Errorf("server: wal: %w", serr)
			}
		}
		return
	}
	if err := sh.log.Commit(); err != nil {
		sh.lastErr = fmt.Errorf("server: wal: %w", err)
	}
}

// writeSnapshot atomically writes the shard's full state to the snapshot
// file and compacts the log. The snapshot records the log's current
// sequence number: a crash between the snapshot rename and the log
// truncation leaves stale records in the log, and replay skips them by
// sequence comparison.
func (sh *shard) writeSnapshot() error {
	sh.settleAll()
	c := &sh.snapEnc
	c.Reset()
	h := sh.snapHeader(sh.log.Seq())
	snapHeaderFields(c, &h)
	sh.stateFields(c)
	crc := crc32.ChecksumIEEE(c.Bytes())
	c.U32(&crc)
	buf := c.Bytes()
	if err := wal.WriteFileAtomic(sh.snapPath(), func(w io.Writer) error {
		_, werr := w.Write(buf)
		return werr
	}); err != nil {
		return fmt.Errorf("server: snapshot shard %d: %w", sh.id, err)
	}
	if err := sh.log.Reset(); err != nil {
		return fmt.Errorf("server: wal: %w", err)
	}
	return nil
}

// closeWAL flushes durability state on graceful shutdown: a final snapshot
// (so a clean restart never replays) with a log-sync fallback, then closes
// the log.
func (sh *shard) closeWAL() {
	if sh.log == nil {
		return
	}
	if err := sh.writeSnapshot(); err != nil {
		sh.lastErr = err
		if serr := sh.log.Sync(); serr != nil {
			sh.lastErr = fmt.Errorf("server: wal: %w", serr)
		}
	}
	if err := sh.log.Close(); err != nil {
		sh.lastErr = fmt.Errorf("server: wal: %w", err)
	}
	sh.log = nil
}

// crashAbort emulates the process dying without warning: the log file is
// closed with its user-space buffer discarded, exactly what kill -9 leaves
// on disk. Only reachable through Server.CrashStop (tests).
func (sh *shard) crashAbort() {
	if sh.log == nil {
		return
	}
	if err := sh.log.Abort(); err != nil {
		sh.lastErr = err
	}
	sh.log = nil
}

// openWAL restores the shard from its snapshot (if any), replays the log
// on top, truncates any torn tail and leaves the shard with an open log
// and a fresh snapshot. Called from New before the shard goroutine starts,
// so direct state mutation is safe.
func (sh *shard) openWAL() error {
	snapSeq, err := sh.loadSnapshot()
	if err != nil {
		return err
	}
	maxSeq := snapSeq
	sh.replaying = true
	res, err := wal.ReplayFile(sh.walPath(), func(seq uint64, typ byte, payload []byte) error {
		if seq <= snapSeq {
			return nil // superseded: the snapshot already contains its effect
		}
		c := wal.DecodeFrom(payload)
		switch typ {
		case recPublish:
			var env envelope
			envelopeFields(&c, &env)
			if err := c.Finish("publish record"); err != nil {
				return fmt.Errorf("server: wal replay shard %d seq %d: %w", sh.id, seq, err)
			}
			sh.accept(env)
		case recRound:
			var want int
			roundFields(&c, &want)
			if err := c.Finish("round record"); err != nil {
				return fmt.Errorf("server: wal replay shard %d seq %d: %w", sh.id, seq, err)
			}
			if sh.round != want {
				return fmt.Errorf("server: wal replay shard %d: round record %d but shard at round %d (snapshot/log mismatch)",
					sh.id, want, sh.round)
			}
			if err := sh.runRound(); err != nil {
				return fmt.Errorf("server: wal replay shard %d round %d: %w", sh.id, want, err)
			}
		default:
			return fmt.Errorf("server: wal replay shard %d seq %d: unknown record type %d", sh.id, seq, typ)
		}
		return nil
	})
	sh.replaying = false
	if err != nil {
		return err
	}
	if res.LastSeq > maxSeq {
		maxSeq = res.LastSeq
	}
	w, err := wal.OpenWriter(sh.walPath(), res.GoodSize, maxSeq, sh.srv.cfg.WALFsync)
	if err != nil {
		return err
	}
	sh.log = w
	// New re-compacts every shard (writeSnapshot) once registration is
	// done: the replayed history AND the pre-registered users are folded
	// into a fresh snapshot, so a crash loop never replays more than one
	// interval and a crash before the first compaction cannot lose
	// registrations (they are never logged, only snapshotted).
	sh.publishSnapshot(0)
	return nil
}

// snapHeader binds a snapshot file to the shard and configuration that
// wrote it, and records the log sequence number the snapshot supersedes.
type snapHeader struct {
	Magic   string
	Version uint32
	Shard   int
	Seed    int64
	Faults  network.FaultConfig
	LastSeq uint64
}

func snapHeaderFields(c *wal.Codec, h *snapHeader) {
	c.Str(&h.Magic)
	c.U32(&h.Version)
	c.IntU32(&h.Shard)
	c.I64(&h.Seed)
	c.F64(&h.Faults.CellLoss)
	c.F64(&h.Faults.WifiLoss)
	c.F64(&h.Faults.CellDisconnect)
	c.F64(&h.Faults.WifiDisconnect)
	c.U64(&h.LastSeq)
}

// snapHeader is the header this shard writes, and the one it insists on
// reading back (LastSeq aside).
func (sh *shard) snapHeader(lastSeq uint64) snapHeader {
	return snapHeader{
		Magic:   snapMagic,
		Version: snapVersion,
		Shard:   sh.id,
		Seed:    sh.srv.cfg.Seed,
		Faults:  sh.srv.cfg.Faults,
		LastSeq: lastSeq,
	}
}

// loadSnapshot reads and verifies the snapshot file, restores the shard
// state from it, and returns the log sequence number it supersedes. A
// missing file is an empty (round-zero) shard.
func (sh *shard) loadSnapshot() (uint64, error) {
	path := sh.snapPath()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("server: read snapshot %s: %w", path, err)
	}
	if len(data) < 4 {
		return 0, fmt.Errorf("server: snapshot %s: too short (%d bytes)", path, len(data))
	}
	var wantCRC uint32
	foot := wal.DecodeFrom(data[len(data)-4:])
	foot.U32(&wantCRC)
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return 0, fmt.Errorf("server: snapshot %s: checksum mismatch", path)
	}
	c := wal.DecodeFrom(body)
	var got snapHeader
	snapHeaderFields(&c, &got)
	switch want := sh.snapHeader(got.LastSeq); {
	case c.Err() != nil:
		return 0, fmt.Errorf("server: snapshot %s: %w", path, c.Err())
	case got.Magic != want.Magic:
		return 0, fmt.Errorf("server: snapshot %s: bad magic %q", path, got.Magic)
	case got.Version != want.Version:
		return 0, fmt.Errorf("server: snapshot %s: unsupported version %d", path, got.Version)
	case got.Shard != want.Shard:
		return 0, fmt.Errorf("server: snapshot %s: belongs to shard %d, not %d", path, got.Shard, want.Shard)
	case got.Seed != want.Seed:
		return 0, fmt.Errorf("server: snapshot %s: seed %d does not match configured %d — restored RNG streams would diverge",
			path, got.Seed, want.Seed)
	case got.Faults != want.Faults:
		return 0, fmt.Errorf("server: snapshot %s: fault config %+v does not match configured %+v",
			path, got.Faults, want.Faults)
	}
	sh.stateFields(&c)
	if err := c.Finish("shard state"); err != nil {
		return 0, fmt.Errorf("server: snapshot %s: %w", path, err)
	}
	return got.LastSeq, nil
}

// stateBytes returns the shard's canonical state encoding — the exact
// payload a snapshot would store. Crash-recovery tests compare these byte
// strings between a recovered shard and an uninterrupted reference.
// Parked devices are settled to the shard clock first so the encoding is
// independent of which users the event-driven loop happened to skip.
func (sh *shard) stateBytes() []byte {
	sh.settleAll()
	var c wal.Codec
	sh.stateFields(&c)
	return c.Bytes()
}

// userState, userQueue and userFeed are the per-user units of the state
// walk, in the plain exported forms the owner methods trade in.
type userState struct {
	Cfg    UserConfig
	Topics []pubsub.TopicID // ascending
	Device sched.DeviceState
}

func userStateFields(c *wal.Codec, u *userState) {
	userConfigFields(c, &u.Cfg)
	wal.Slice(c, &u.Topics, 16, "topics", topicFields)
	deviceStateFields(c, &u.Device)
}

type userQueue struct {
	User  notif.UserID
	Items []sched.Queued
}

func userQueueFields(c *wal.Codec, q *userQueue) {
	wal.Int(c, &q.User)
	wal.Slice(c, &q.Items, 8, "inbox items", queuedFields)
}

type userFeed struct {
	User       notif.UserID
	Deliveries []notif.Delivery
}

func userFeedFields(c *wal.Codec, f *userFeed) {
	wal.Int(c, &f.User)
	wal.Slice(c, &f.Deliveries, 16, "feed entries", deliveryFields)
}

// stateFields is the one description of everything in a shard that must
// survive a crash, in canonical order (users ascending throughout; see
// each component's ExportState for its own ordering guarantees).
// Encoding, it exports the live components and writes them; decoding, it
// reads them and — behind c.Decoding() — rebuilds the shard: devices are
// re-created from their stored configs (re-seeding their RNG streams),
// subscriptions re-registered, and every component restored through its
// own owner method, which requires a freshly constructed shard. Excluded
// on purpose: wall-clock telemetry (obs.Recorder spans,
// LastRound/AvgRound) and lastErr, which describe the process, not the
// schedule. A restore that cannot proceed latches its reason in c
// (Codec.Fail) and stops installing; the caller's Finish reports it.
func (sh *shard) stateFields(c *wal.Codec) {
	dec := c.Decoding()
	if dec && len(sh.devices) != 0 {
		c.Fail(fmt.Errorf("server: restore into shard %d with %d users already registered", sh.id, len(sh.devices)))
		return
	}
	wal.Int(c, &sh.round)
	backpressured, dropped := sh.backpressured.Load(), sh.droppedIngest.Load()
	c.U64(&backpressured)
	c.U64(&dropped)
	if dec {
		sh.backpressured.Store(backpressured)
		sh.droppedIngest.Store(dropped)
	}

	nUsers := len(sh.userOrder)
	c.Count(&nUsers, 8, "users")
	for i := 0; i < nUsers && c.Err() == nil; i++ {
		var u userState
		if !dec {
			id := sh.userOrder[i]
			u = userState{Cfg: sh.userCfgs[id], Topics: sortedTopics(sh.subs[id]), Device: sh.devices[id].ExportState()}
		}
		userStateFields(c, &u)
		if dec && c.Err() == nil {
			c.Fail(sh.restoreUser(&u))
		}
	}

	var inbox []userQueue
	if !dec {
		users := nonEmptyUsers(sh.inbox)
		inbox = make([]userQueue, 0, len(users))
		for _, u := range users {
			inbox = append(inbox, userQueue{User: u, Items: sh.inbox[u]})
		}
	}
	wal.Slice(c, &inbox, 12, "inbox users", userQueueFields)

	var bs pubsub.BrokerState
	var cs metrics.CollectorState
	if !dec {
		bs, cs = sh.broker.ExportState(), sh.col.ExportState()
	}
	brokerStateFields(c, &bs)
	collectorStateFields(c, &cs)

	var feeds []userFeed
	sh.feedMu.Lock()
	if !dec {
		users := nonEmptyUsers(sh.feeds)
		feeds = make([]userFeed, 0, len(users))
		for _, u := range users {
			feeds = append(feeds, userFeed{User: u, Deliveries: sh.feeds[u]})
		}
	}
	wal.Slice(c, &feeds, 12, "feed users", userFeedFields)
	if dec && c.Err() == nil {
		for _, f := range feeds {
			sh.feeds[f.User] = f.Deliveries
		}
	}
	sh.feedMu.Unlock()

	if !dec || c.Err() != nil {
		return
	}
	for _, q := range inbox {
		sh.inbox[q.User] = q.Items
	}
	if err := sh.broker.RestoreState(bs); err != nil {
		c.Fail(err)
		return
	}
	if err := sh.col.RestoreState(cs); err != nil {
		c.Fail(err)
		return
	}
	// Derive the event-driven bookkeeping from the restored ground truth:
	// the dirty set is exactly {¬quiescent ∨ inbox≠∅} and the running
	// aggregates re-fold from per-device state, so replay drives the same
	// dirty-set path the crashed process was on.
	sh.rebuildAgg()
	sh.rebuildDirty()
}

// restoreUser is the decode side of one user: register, re-subscribe,
// restore the device.
func (sh *shard) restoreUser(u *userState) error {
	if err := sh.addUser(u.Cfg); err != nil {
		return err
	}
	for _, topic := range u.Topics {
		if err := sh.subscribe(u.Cfg.User, topic); err != nil {
			return err
		}
	}
	return sh.devices[u.Cfg.User].RestoreState(u.Device)
}

// nonEmptyUsers returns the users holding a non-empty entry in m,
// ascending.
func nonEmptyUsers[T any](m map[notif.UserID][]T) []notif.UserID {
	ids := make([]notif.UserID, 0, len(m))
	for u, v := range m {
		if len(v) > 0 {
			ids = append(ids, u)
		}
	}
	slices.Sort(ids)
	return ids
}

func sortedTopics(set map[pubsub.TopicID]bool) []pubsub.TopicID {
	topics := make([]pubsub.TopicID, 0, len(set))
	for t := range set {
		topics = append(topics, t)
	}
	slices.SortFunc(topics, func(a, b pubsub.TopicID) int {
		if a.Kind != b.Kind {
			return int(a.Kind) - int(b.Kind)
		}
		return cmp.Compare(a.Entity, b.Entity)
	})
	return topics
}

// --- value descriptions ------------------------------------------------------

func topicFields(c *wal.Codec, t *pubsub.TopicID) {
	wal.Int(c, &t.Kind)
	c.I64(&t.Entity)
}

func itemFields(c *wal.Codec, it *notif.Item) {
	wal.Int(c, &it.ID)
	wal.Int(c, &it.Kind)
	wal.Int(c, &it.Topic)
	wal.Int(c, &it.Sender)
	wal.Int(c, &it.Recipient)
	c.Time(&it.CreatedAt)
	c.I64(&it.Meta.TrackID)
	c.I64(&it.Meta.AlbumID)
	c.I64(&it.Meta.ArtistID)
	c.F64(&it.Meta.TrackPopularity)
	c.F64(&it.Meta.AlbumPopularity)
	c.F64(&it.Meta.ArtistPopularity)
	wal.Int(c, &it.Meta.Genre)
	c.Str(&it.Meta.URL)
	c.F64(&it.TieStrength)
}

// envelopeFields describes one routed publication. It is both the
// recPublish log record and the FramePublish request: the router's bytes
// are the bytes the owning shard logs.
func envelopeFields(c *wal.Codec, env *envelope) {
	topicFields(c, &env.topic)
	wal.Int(c, &env.user)
	itemFields(c, &env.item)
}

func presentationFields(c *wal.Codec, p *notif.Presentation) {
	wal.Int(c, &p.Level)
	c.I64(&p.Size)
	c.F64(&p.Utility)
	c.F64(&p.DurationSec)
	wal.Int(c, &p.SampleRateHz)
	wal.Int(c, &p.BitrateKbps)
	c.Str(&p.Label)
}

func queuedFields(c *wal.Codec, q *sched.Queued) {
	itemFields(c, &q.Rich.Item)
	c.F64(&q.Rich.ContentUtility)
	wal.Slice(c, &q.Rich.Presentations, 44, "presentations", presentationFields)
	wal.Int(c, &q.Rich.ArrivedRound)
	c.Bool(&q.Clicked)
	wal.Int(c, &q.ClickRound)
	c.F64(&q.TrueUc)
	wal.Int(c, &q.Attempts)
	wal.Int(c, &q.LevelCap)
}

func deliveryFields(c *wal.Codec, dl *notif.Delivery) {
	wal.Int(c, &dl.ItemID)
	wal.Int(c, &dl.Recipient)
	wal.Int(c, &dl.Level)
	c.I64(&dl.Size)
	c.F64(&dl.Utility)
	c.F64(&dl.TrueUtility)
	c.F64(&dl.EnergyJ)
	wal.Int(c, &dl.Retries)
	c.Bool(&dl.Degraded)
	wal.Int(c, &dl.ArrivedRound)
	wal.Int(c, &dl.DeliveredRound)
	c.Time(&dl.DeliveredAt)
}

func userConfigFields(c *wal.Codec, cfg *UserConfig) {
	wal.Int(c, &cfg.User)
	wal.Int(c, &cfg.Strategy)
	wal.Int(c, &cfg.FixedLevel)
	c.I64(&cfg.WeeklyBudgetBytes)
	c.F64(&cfg.V)
	c.F64(&cfg.KappaJ)
	if c.Decoding() {
		cfg.NetworkMatrix = new(network.Matrix)
	}
	for row := range cfg.NetworkMatrix {
		for col := range cfg.NetworkMatrix[row] {
			c.F64(&cfg.NetworkMatrix[row][col])
		}
	}
	wal.Int(c, &cfg.StartState)
	wal.Int(c, &cfg.MaxDeliveriesPerRound)
	wal.Int(c, &cfg.MaxAttempts)
	c.Bool(&cfg.DegradeOnFailure)
}

func deviceStateFields(c *wal.Codec, s *sched.DeviceState) {
	wal.Slice(c, &s.Queue, 120, "device queue", queuedFields)
	c.F64(&s.BudgetBase)
	c.I64(&s.BudgetPendingRounds)
	c.F64(&s.BudgetDebited)
	c.F64(&s.BudgetRefunded)
	c.F64(&s.BatteryLevel)
	c.U64(&s.BatteryDraws)
	wal.Int(c, &s.NetworkState)
	c.U64(&s.NetworkDraws)
	c.U64(&s.FaultDraws)
	wal.Int(c, &s.NextRound)
	c.Bool(&s.HasController)
	if s.HasController {
		controllerFields(c, &s.Controller)
	}
}

func controllerFields(c *wal.Codec, s *lyapunov.State) {
	c.F64(&s.Q)
	c.F64(&s.P)
	c.F64(&s.MaxQ)
	c.F64(&s.SumQ)
	wal.Int(c, &s.Rounds)
	c.F64(&s.DriftSum)
	c.F64(&s.LastL)
	c.Bool(&s.Initialized)
}

func brokerStateFields(c *wal.Codec, bs *pubsub.BrokerState) {
	c.U64(&bs.Published)
	c.U64(&bs.Delivered)
	wal.Slice(c, &bs.Pending, 28, "pending buffers", func(c *wal.Codec, p *pubsub.PendingState) {
		topicFields(c, &p.Topic)
		wal.Int(c, &p.User)
		wal.Slice(c, &p.Items, 8, "pending items", itemFields)
	})
}

func collectorStateFields(c *wal.Codec, cs *metrics.CollectorState) {
	wal.Slice(c, &cs.Users, 16, "metric users", userMetricsFields)
	wal.Slice(c, &cs.DelaySamples, 8, "delay samples", (*wal.Codec).F64)
}

func levelCountFields(c *wal.Codec, lc *metrics.LevelCount) {
	wal.Int(c, &lc.Level)
	wal.Int(c, &lc.Count)
}

func userMetricsFields(c *wal.Codec, u *metrics.UserState) {
	wal.Int(c, &u.User)
	wal.Int(c, &u.Arrived)
	wal.Int(c, &u.ClickedTotal)
	wal.Int(c, &u.Delivered)
	c.I64(&u.DeliveredBytes)
	c.F64(&u.UtilitySum)
	c.F64(&u.TrueUtilitySum)
	wal.Int(c, &u.ClickedAndDelivered)
	wal.Int(c, &u.DeliveredBeforeClick)
	c.F64(&u.EnergyJ)
	wal.Int(c, &u.DelayRoundsSum)
	wal.Slice(c, &u.LevelCounts, 16, "level counts", levelCountFields)
	wal.Int(c, &u.TransferFailures)
	wal.Int(c, &u.RetriedDeliveries)
	wal.Int(c, &u.DegradedDeliveries)
	wal.Int(c, &u.Dropped)
	c.F64(&u.WastedEnergyJ)
}
