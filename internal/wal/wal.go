// Package wal implements the durability substrate of richnote-serve's
// crash recovery (DESIGN.md §12): a per-shard append-only log of
// length-prefixed, CRC-framed binary records plus an atomic-write helper
// for the compacted snapshots the log is replayed on top of.
//
// Record framing, little-endian throughout:
//
//	[u32 frameLen] [u64 seq] [u8 type] [payload] [u32 crc]
//
// frameLen counts seq+type+payload (9 + len(payload)); crc is IEEE CRC-32
// over exactly those bytes. This is the system's only framing: WriteFrame,
// FrameLen and SplitFrame below implement it once, for the log here and
// for internal/transport's wire frames (whose id rides in the seq slot).
// Sequence numbers are assigned by the writer, increase monotonically and
// survive log compaction (Reset), which is what lets recovery skip records
// a snapshot already covers after a crash between snapshot write and log
// truncation.
//
// The durability/consistency contract is prefix semantics: a crash loses
// an un-synced suffix of records, never a middle record, and recovery
// reconstructs exactly the state produced by the durable prefix. The
// reader enforces the matching read-side rule — a truncated or torn final
// record is tolerated (it is the lost suffix), a corrupt record with
// intact data after it is rejected (the log itself is damaged).
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Record type identifiers are owned by the caller; the log only frames
// them. Type 0 is reserved as invalid.

// FrameHeaderLen is the fixed prefix before the payload: u32 frameLen,
// u64 seq (or request id), u8 type.
const FrameHeaderLen = 4 + 8 + 1

// frameMinLen is the smallest legal frameLen: seq+type, empty payload.
const frameMinLen = 8 + 1

// WriteFrame frames one (id, type, payload) into bw: header, payload, CRC
// footer. scratch is the caller's header/footer buffer, so a caller that
// keeps one (Writer) frames without allocating. The payload is copied
// into bw's buffer; callers may reuse it immediately.
//
// richnote:allocfree
func WriteFrame(bw *bufio.Writer, scratch *[FrameHeaderLen + 4]byte, id uint64, typ byte, payload []byte) error {
	hdr, foot := scratch[:FrameHeaderLen], scratch[FrameHeaderLen:]
	putU32(hdr[0:4], uint32(frameMinLen+len(payload)))
	putU64(hdr[4:12], id)
	hdr[12] = typ
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, payload)
	putU32(foot, crc)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	_, err := bw.Write(foot)
	return err
}

// FrameLen reads a frame's u32 length prefix: the number of bytes
// (id+type+payload) between the prefix and the CRC footer. ok is false
// for a length no frame can have.
func FrameLen(prefix []byte) (frameLen int, ok bool) {
	frameLen = int(getU32(prefix))
	return frameLen, frameLen >= frameMinLen
}

// SplitFrame takes what follows a length prefix — FrameLen bytes and the
// 4-byte CRC footer — and splits it into id, type and payload (aliasing
// body). ok is false when the CRC does not match.
func SplitFrame(body []byte) (id uint64, typ byte, payload []byte, ok bool) {
	frame, foot := body[:len(body)-4], body[len(body)-4:]
	return getU64(frame[0:8]), frame[8], frame[9:], crc32.ChecksumIEEE(frame) == getU32(foot)
}

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

// Sync policies, in decreasing durability order.
const (
	// SyncAlways fsyncs after every Append: no appended record is ever
	// lost to a crash, at per-record fsync cost. A caller that acks work
	// before appending it can still lose what it has not yet appended
	// (the server's publish path does; see DESIGN.md §12).
	SyncAlways SyncPolicy = iota + 1
	// SyncRound fsyncs on Commit (the shard's round boundary): a crash
	// loses at most the current round's tail. The default.
	SyncRound
	// SyncNever flushes to the OS on Commit but never fsyncs: a process
	// crash loses nothing the OS accepted, a machine crash may lose more.
	SyncNever
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncRound:
		return "round"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -wal.fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "round":
		return SyncRound, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, round or never)", s)
	}
}

// Validate reports whether the policy is one of the declared values.
func (p SyncPolicy) Validate() error {
	switch p {
	case SyncAlways, SyncRound, SyncNever:
		return nil
	default:
		return fmt.Errorf("wal: invalid sync policy %d", int(p))
	}
}

// Writer appends framed records to a log file. It buffers through a
// bufio.Writer and reuses a fixed header scratch, so the steady-state
// append path allocates nothing (the shard calls it on the round hot
// path). A Writer is single-owner state: only the owning shard goroutine
// may touch it.
type Writer struct {
	f      *os.File
	bw     *bufio.Writer
	policy SyncPolicy
	seq    uint64 // last assigned sequence number

	scratch [FrameHeaderLen + 4]byte
}

// OpenWriter opens (creating if needed) the log at path for appending.
// goodSize is the byte offset of the end of the last valid record as
// reported by ReplayFile; anything after it (a torn tail from a crash) is
// truncated before the first append so new records never follow garbage.
// lastSeq seeds the sequence counter: the first Append returns lastSeq+1.
func OpenWriter(path string, goodSize int64, lastSeq uint64, policy SyncPolicy) (*Writer, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if err := f.Truncate(goodSize); err != nil {
		_ = f.Close() // already failing; nothing to save
		return nil, fmt.Errorf("wal: truncate %s to %d: %w", path, goodSize, err)
	}
	if _, err := f.Seek(goodSize, 0); err != nil {
		_ = f.Close() // already failing; nothing to save
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return &Writer{f: f, bw: bufio.NewWriter(f), policy: policy, seq: lastSeq}, nil
}

// Seq returns the sequence number of the last appended record (or the
// lastSeq the writer was opened with).
func (w *Writer) Seq() uint64 { return w.seq }

// Append frames and buffers one record, returning its sequence number.
// Under SyncAlways the record is flushed and fsynced before Append
// returns; otherwise durability is deferred to Commit/Sync. The payload
// is copied into the write buffer, so callers may reuse it immediately.
//
// richnote:allocfree
func (w *Writer) Append(typ byte, payload []byte) (uint64, error) {
	w.seq++
	if err := WriteFrame(w.bw, &w.scratch, w.seq, typ, payload); err != nil {
		return w.seq, fmt.Errorf("wal: append: %w", err)
	}
	if w.policy == SyncAlways {
		return w.seq, w.Sync()
	}
	return w.seq, nil
}

// Sync flushes the buffer and fsyncs the file, regardless of policy.
// Snapshot and drain paths call it to pin the log before relying on it.
func (w *Writer) Sync() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Commit marks a round boundary: SyncRound fsyncs, SyncNever flushes to
// the OS without fsync, SyncAlways has nothing left to do.
func (w *Writer) Commit() error {
	switch w.policy {
	case SyncRound:
		return w.Sync()
	case SyncNever:
		if err := w.bw.Flush(); err != nil {
			return fmt.Errorf("wal: flush: %w", err)
		}
		return nil
	default:
		return nil
	}
}

// Reset truncates the log to empty after a snapshot has captured its
// effects (compaction). The sequence counter is NOT reset — it must stay
// monotonic so stale records in a log that survived a crash between
// snapshot write and truncation are recognizably old. The truncation is
// fsynced before Reset returns.
func (w *Writer) Reset() error {
	// Discard buffered-but-unwritten bytes: the snapshot supersedes them.
	w.bw.Reset(w.f)
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset truncate: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset fsync: %w", err)
	}
	return nil
}

// Abort closes the log file WITHOUT flushing buffered records, discarding
// whatever Append buffered since the last Sync/Commit — the user-space
// half of kill -9. Crash-recovery tests use it to emulate a process dying
// mid-round without leaking the descriptor.
func (w *Writer) Abort() error {
	return w.f.Close()
}

// Close flushes, fsyncs and closes the log file.
func (w *Writer) Close() error {
	syncErr := w.Sync()
	closeErr := w.f.Close()
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close: %w", closeErr)
	}
	return nil
}

// ErrCorrupt marks a log whose damage is not a simple lost tail: a record
// fails its CRC (or frames nonsense) while intact data follows it. Such a
// log cannot be trusted at all and recovery must refuse it rather than
// silently skip the hole.
var ErrCorrupt = errors.New("wal: corrupt record with intact data after it")

// ReplayResult reports what ReplayFile consumed.
type ReplayResult struct {
	// GoodSize is the byte offset just past the last valid record; a
	// writer reopened at this offset discards any torn tail.
	GoodSize int64
	// LastSeq is the sequence number of the last valid record (0 when the
	// log is empty).
	LastSeq uint64
	// Truncated is true when a torn or incomplete final record was
	// tolerated and dropped.
	Truncated bool
	// Records counts the valid records delivered to the callback.
	Records int
}

// ReplayFile reads the log at path and invokes fn for each valid record
// in order. The payload passed to fn aliases an internal buffer and is
// only valid for the duration of the call. A missing file is an empty
// log. A truncated or torn final record is tolerated per the package
// contract; damage followed by intact data returns ErrCorrupt.
func ReplayFile(path string, fn func(seq uint64, typ byte, payload []byte) error) (ReplayResult, error) {
	var res ReplayResult
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return res, nil
		}
		return res, fmt.Errorf("wal: read %s: %w", path, err)
	}
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 4 {
			res.Truncated = true // partial length prefix: lost tail
			break
		}
		frameLen, ok := FrameLen(rest)
		end := 4 + frameLen + 4
		if !ok || len(rest) < end {
			// The declared frame does not fit in the remaining bytes: the
			// record was torn mid-write. By construction a torn write is
			// the last thing that happened to the file, so this is the
			// tolerated lost tail.
			res.Truncated = true
			break
		}
		seq, typ, payload, ok := SplitFrame(rest[4:end])
		if !ok {
			if end == len(rest) {
				// The damaged record is the final one: a torn overwrite of
				// the tail, tolerated like a short tail.
				res.Truncated = true
				break
			}
			return res, fmt.Errorf("%w: record at offset %d in %s", ErrCorrupt, off, path)
		}
		if fn != nil {
			if err := fn(seq, typ, payload); err != nil {
				return res, err
			}
		}
		off += end
		res.GoodSize = int64(off)
		res.LastSeq = seq
		res.Records++
	}
	return res, nil
}
