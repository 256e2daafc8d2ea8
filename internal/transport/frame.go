// Package transport implements the cluster's binary wire protocol
// (DESIGN.md §13): length-prefixed, CRC-framed request/response frames over
// TCP, connecting the router tier to the shard-owner nodes and the nodes to
// each other during shard handoff.
//
// A frame is an internal/wal record, byte for byte — this package calls
// wal.WriteFrame, wal.FrameLen and wal.SplitFrame rather than keeping a
// second implementation — little-endian throughout:
//
//	[u32 frameLen] [u64 id] [u8 type] [payload] [u32 crc]
//
// frameLen counts id+type+payload (9 + len(payload)); crc is IEEE CRC-32
// over exactly those bytes. id is a request identifier assigned by the
// client; the response echoes it, which is what lets a client detect a
// desynchronized connection and drop it rather than mis-pair an exchange.
// Frame type identifiers are owned by the caller (internal/server defines
// the cluster RPC set); the transport only frames, checks and routes them.
// Payload encoding is the caller's business too — in practice the cluster
// speaks internal/wal's Codec, the same codec the snapshots a handoff
// ships are written in.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"github.com/richnote/richnote/internal/wal"
)

// MaxFrameLen bounds a single frame. Shard handoff ships whole compacted
// snapshots in one frame, so the ceiling is generous; anything larger is a
// framing error, not a bigger buffer.
const MaxFrameLen = 256 << 20

// readChunk caps what readFrame allocates on the strength of a length
// prefix alone. Frames up to this size are read into one exact-size
// buffer; a larger one grows by doubling as its bytes actually arrive, so
// four bytes from a peer cannot cost the reader MaxFrameLen of memory.
const readChunk = 4 << 20

// ErrFrameTooLarge rejects frames whose declared length exceeds MaxFrameLen.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// ErrFrameCorrupt rejects frames whose CRC does not match their contents.
var ErrFrameCorrupt = errors.New("transport: frame checksum mismatch")

// writeFrame frames and writes one message. The payload is copied into the
// writer's buffer, so callers may reuse it immediately.
func writeFrame(w *bufio.Writer, id uint64, typ byte, payload []byte) error {
	if len(payload) > MaxFrameLen-9 {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var scratch [wal.FrameHeaderLen + 4]byte
	if err := wal.WriteFrame(w, &scratch, id, typ, payload); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("transport: flush frame: %w", err)
	}
	return nil
}

// readFrame reads and verifies one frame. The returned payload is freshly
// allocated and owned by the caller. An io.EOF between frames surfaces as
// io.EOF so connection teardown is distinguishable from mid-frame damage.
func readFrame(r *bufio.Reader) (id uint64, typ byte, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, fmt.Errorf("transport: read frame length: %w", err)
	}
	frameLen, ok := wal.FrameLen(lenBuf[:])
	if !ok {
		return 0, 0, nil, fmt.Errorf("%w: declared frame length %d", ErrFrameCorrupt, frameLen)
	}
	if frameLen > MaxFrameLen {
		return 0, 0, nil, fmt.Errorf("%w: declared frame length %d", ErrFrameTooLarge, frameLen)
	}
	want := frameLen + 4 // the CRC footer follows the frame
	body := make([]byte, min(want, readChunk))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, body[filled:]); err != nil {
			return 0, 0, nil, fmt.Errorf("transport: read frame body: %w", err)
		}
		if filled = len(body); filled == want {
			break
		}
		body = append(body, make([]byte, min(want-filled, filled))...)
	}
	id, typ, payload, ok = wal.SplitFrame(body)
	if !ok {
		return 0, 0, nil, fmt.Errorf("%w: frame id %d", ErrFrameCorrupt, id)
	}
	return id, typ, payload, nil
}
