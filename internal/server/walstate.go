package server

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
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
// code paths of the original run (accept, runRound) on identically keyed
// random streams sought to their snapshotted draw counts, which is what
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
	// snapVersion 3: device randomness moved from re-seeded math/rand
	// sources to seekable sim.Streams keyed sim.StreamSeed(userSeed,
	// stream), so a v2 draw count indexes a different stream; v2
	// snapshots are refused rather than silently continued.
	// snapVersion 4: the collector stores its queuing delays as
	// (delay, count) pairs, one per distinct delay, instead of one raw
	// sample per delivery, so its state no longer grows with deliveries.
	// v3 snapshots are refused, not converted.
	snapVersion = 4
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
	if every := sh.srv.cfg.SnapshotEvery; every > 0 && (completed+1)%every == 0 {
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
	c := &sh.snapEnc
	c.Reset()
	h := sh.snapHeader(sh.log.Seq())
	snapHeaderFields(c, &h)
	sh.stateFields(c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("server: snapshot shard %d: %w", sh.id, err)
	}
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
// on top, truncates any torn tail and leaves the shard with an open log.
// Called before the shard goroutine starts (open, the adopt paths), so
// direct state mutation is safe; the caller publishes the read-side
// snapshot.
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
			if at := sh.eng.Round(); at != want {
				return fmt.Errorf("server: wal replay shard %d: round record %d but shard at round %d (snapshot/log mismatch)",
					sh.id, want, at)
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
func (sh *shard) stateBytes() []byte {
	var c wal.Codec
	sh.stateFields(&c)
	return c.Bytes()
}

// userFeed is one user's recent-delivery feed, the shard's own unit of
// the state walk.
type userFeed struct {
	User       notif.UserID
	Deliveries []notif.Delivery
}

func userFeedFields(c *wal.Codec, f *userFeed) {
	wal.Int(c, &f.User)
	wal.Slice(c, &f.Deliveries, 16, "feed entries", deliveryFields)
}

// stateFields is the one description of everything in a shard that must
// survive a crash: the engine's walk (core.Engine.StateFields), with the
// shard's ingest counters in the place snapshot v2 gives them — right
// after the round — and the recent-delivery feeds after it. Decoding
// requires a freshly constructed shard. Excluded on purpose: wall-clock
// telemetry (obs.Recorder spans, LastRound/AvgRound) and lastErr, which
// describe the process, not the schedule. A restore that cannot proceed
// latches its reason in c (Codec.Fail) and stops installing; the caller's
// Finish reports it.
func (sh *shard) stateFields(c *wal.Codec) {
	sh.eng.StateFields(c, sh.ingestCounterFields)

	dec := c.Decoding()
	var feeds []userFeed
	sh.feedMu.Lock()
	if !dec {
		for u, f := range sh.feeds {
			if len(f.buf) > 0 {
				feeds = append(feeds, userFeed{User: u, Deliveries: f.ordered()})
			}
		}
		slices.SortFunc(feeds, func(a, b userFeed) int { return cmp.Compare(a.User, b.User) })
	}
	wal.Slice(c, &feeds, 12, "feed users", userFeedFields)
	if dec && c.Err() == nil {
		limit := sh.srv.cfg.RecentDeliveries
		for _, f := range feeds {
			// A feed written under a larger RecentDeliveries keeps its newest
			// entries, as the next delivery would have trimmed it to.
			sh.feeds[f.User] = &feedRing{buf: f.Deliveries[max(len(f.Deliveries)-limit, 0):]}
		}
	}
	sh.feedMu.Unlock()
}

func (sh *shard) ingestCounterFields(c *wal.Codec) {
	backpressured, dropped := sh.backpressured.Load(), sh.droppedIngest.Load()
	c.U64(&backpressured)
	c.U64(&dropped)
	if c.Decoding() {
		sh.backpressured.Store(backpressured)
		sh.droppedIngest.Store(dropped)
	}
}

// --- value descriptions ------------------------------------------------------

// envelopeFields describes one routed publication. It is both the
// recPublish log record and the FramePublish request: the router's bytes
// are the bytes the owning shard logs.
func envelopeFields(c *wal.Codec, env *envelope) {
	core.TopicFields(c, &env.topic)
	wal.Int(c, &env.user)
	core.ItemFields(c, &env.item)
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
