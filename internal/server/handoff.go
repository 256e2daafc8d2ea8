package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/richnote/richnote/internal/wal"
)

// Shard handoff (DESIGN.md §13) moves one shard between processes with
// bit-identical state, built on the PR 6 snapshot/restore substrate:
//
//	planned:  source FreezeShard → snapshot bytes over the transport →
//	          target AdoptShardBytes → openWAL restore → goroutine starts
//	crash:    source is dead; target AdoptShardFromWAL reads the shard's
//	          snapshot + WAL tail from shared storage and replays
//
// A shard slot can be adopted only while it is "virgin" in this process —
// never owned, never started, no users — with one exception: a slot this
// process froze for a planned handoff, whose goroutine has fully exited
// (FreezeShard waits on done before returning). Such a slot is recycled
// back to virgin on adopt, which is what lets a failed mid-move adopt
// roll the shard back onto its source instead of wedging it until a
// process restart. Any other used slot still refuses adoption: reviving
// it would race its old goroutine's teardown.

// doFreeze runs on the shard goroutine (the freeze case in run): it
// drains the ingest queue so every accepted publication is folded into
// broker state, captures the canonical state bytes, compacts everything
// into a final snapshot, closes the log and reports the snapshot file
// bytes for shipment. The goroutine exits right after replying.
func (sh *shard) doFreeze() freezeResp {
	// FreezeShard closed the queue before sending the request, and a push
	// appends only while the queue is open, under the same lock: every
	// publish that was acknowledged is already queued, and one drain takes
	// it.
	sh.drainIngest()
	if sh.log == nil {
		return freezeResp{err: fmt.Errorf("server: freeze shard %d: no WAL (handoff requires durability)", sh.id)}
	}
	state := sh.stateBytes()
	if err := sh.writeSnapshot(); err != nil {
		return freezeResp{err: fmt.Errorf("server: freeze shard %d: %w", sh.id, err)}
	}
	snap, err := os.ReadFile(sh.snapPath())
	if err != nil {
		return freezeResp{err: fmt.Errorf("server: freeze shard %d: read snapshot: %w", sh.id, err)}
	}
	if err := sh.log.Close(); err != nil {
		return freezeResp{err: fmt.Errorf("server: freeze shard %d: close log: %w", sh.id, err)}
	}
	sh.log = nil
	sh.publishSnapshot(0)
	return freezeResp{snapBytes: snap, state: state}
}

// FreezeShard stops serving a shard and returns its final compacted
// snapshot bytes plus the canonical state bytes at freeze. The shard's
// publishes reject with ErrNotOwner from the moment this is called, and
// every publish acknowledged before that is in the returned state; the
// shard goroutine exits before FreezeShard returns. The snapshot is the
// complete state — the log is compacted into it, so there is no WAL tail
// to ship separately on the planned path.
func (s *Server) FreezeShard(id int) (snap, state []byte, err error) {
	if id < 0 || id >= len(s.shards) {
		return nil, nil, fmt.Errorf("server: freeze: shard %d out of range [0,%d)", id, len(s.shards))
	}
	sh := s.shards[id]
	if !sh.owned.Load() {
		return nil, nil, ErrNotOwner
	}
	if !sh.started.Load() {
		return nil, nil, fmt.Errorf("server: freeze shard %d: not running", id)
	}
	// Ownership off and the queue closed before the drain inside doFreeze.
	// The owned flag alone cannot close the window: a publisher that read
	// it as true may be descheduled before it appends. The close takes the
	// queue lock, so such a push either landed before it (and the drain
	// takes it) or sees the queue closed and returns ErrNotOwner.
	sh.owned.Store(false)
	sh.ingest.setClosed(true)
	done := sh.doneCh()
	req := freezeReq{reply: make(chan freezeResp, 1)}
	select {
	case sh.freeze <- req:
	case <-done:
		return nil, nil, fmt.Errorf("server: freeze shard %d: already stopped", id)
	}
	resp := <-req.reply
	<-done
	sh.started.Store(false)
	if resp.err == nil {
		// The goroutine exited with the state compacted on disk: this slot
		// is eligible for recycling if the move it was frozen for fails.
		sh.frozen.Store(true)
	}
	return resp.snapBytes, resp.state, resp.err
}

// adoptable validates that a shard slot can receive a handoff.
func (s *Server) adoptable(id int) (*shard, error) {
	if id < 0 || id >= len(s.shards) {
		return nil, fmt.Errorf("server: adopt: shard %d out of range [0,%d)", id, len(s.shards))
	}
	if s.cfg.WALDir == "" {
		return nil, errors.New("server: adopt requires WALDir")
	}
	if s.state.Load() != stateStarted {
		return nil, errors.New("server: adopt: server not running")
	}
	sh := s.shards[id]
	if sh.owned.Load() || sh.started.Load() {
		return nil, fmt.Errorf("server: adopt: shard %d already owned by this process", id)
	}
	if sh.frozen.Load() {
		// Not virgin, but this process froze it and the goroutine has
		// fully exited, so nothing races the reset: recycle the slot so a
		// failed planned move can re-adopt the frozen snapshot here.
		sh.recycle()
	}
	// Safe off-goroutine read: the slot was never owned or started (checked
	// above), so no shard goroutine has ever touched this engine.
	users := sh.eng.Stats().Users //lint:allow confined virgin-slot check precedes any shard goroutine
	if users != 0 {
		return nil, fmt.Errorf("server: adopt: shard %d slot is not virgin (%d users)", id, users)
	}
	return sh, nil
}

// finishAdopt records the restored state, marks ownership and launches
// the shard goroutine. The restored-state capture happens before the
// goroutine starts, so reading it here is race-free.
func (s *Server) finishAdopt(sh *shard) {
	state := sh.stateBytes()
	s.adoptedMu.Lock()
	s.adopted[sh.id] = state
	s.adoptedMu.Unlock()
	sh.publishSnapshot(0)
	sh.ingest.setClosed(false) // a recycled slot's queue was closed by its freeze
	sh.owned.Store(true)
	sh.started.Store(true)
	go sh.run(s.cfg.RoundEvery)
}

// AdoptShardBytes installs a shipped snapshot (the planned-handoff path):
// the bytes are written as the shard's snapshot file in this process's
// WALDir, any stale log file is removed, and the shard restores and
// starts serving. The restored state is byte-checked against the snapshot
// by construction (openWAL's loadSnapshot verifies magic, CRC, seed and
// fault config) and recorded for AdoptedState.
func (s *Server) AdoptShardBytes(id int, snap []byte) error {
	sh, err := s.adoptable(id)
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(sh.snapPath(), func(w io.Writer) error {
		_, werr := w.Write(snap)
		return werr
	}); err != nil {
		return fmt.Errorf("server: adopt shard %d: write snapshot: %w", id, err)
	}
	if err := os.Remove(sh.walPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: adopt shard %d: clear stale log: %w", id, err)
	}
	if err := sh.openWAL(); err != nil {
		return fmt.Errorf("server: adopt shard %d: %w", id, err)
	}
	s.finishAdopt(sh)
	return nil
}

// AdoptShardFromWAL restores a shard from files already present in this
// process's WALDir — the crash-takeover path, which requires the cluster
// to run nodes against shared storage. The dead node's snapshot plus its
// un-compacted WAL tail replay through the standard recovery path, giving
// the same bit-identical guarantee as a restart of the dead node itself.
func (s *Server) AdoptShardFromWAL(id int) error {
	sh, err := s.adoptable(id)
	if err != nil {
		return err
	}
	if err := sh.openWAL(); err != nil {
		return fmt.Errorf("server: adopt shard %d: %w", id, err)
	}
	s.finishAdopt(sh)
	return nil
}

// AdoptedState returns the canonical state bytes a shard restored to when
// it was adopted, or nil if the shard was never adopted by this process.
// Handoff tests compare this against the source's freeze-time state.
func (s *Server) AdoptedState(id int) []byte {
	s.adoptedMu.Lock()
	defer s.adoptedMu.Unlock()
	return append([]byte(nil), s.adopted[id]...)
}

// ShardState returns the canonical state bytes of a running owned shard,
// read on the shard goroutine. Used by the cluster debug frame and the
// handoff integration tests.
func (s *Server) ShardState(ctx context.Context, id int) ([]byte, error) {
	if id < 0 || id >= len(s.shards) {
		return nil, fmt.Errorf("server: shard %d out of range [0,%d)", id, len(s.shards))
	}
	sh := s.shards[id]
	if !sh.owned.Load() {
		return nil, ErrNotOwner
	}
	if !sh.started.Load() {
		// Before Start (or in tests), the shard goroutine is not serving;
		// direct access is the construction-time convention.
		return sh.stateBytes(), nil
	}
	reply := make(chan []byte, 1)
	select {
	case sh.stateq <- reply:
	case <-sh.doneCh():
		return nil, fmt.Errorf("server: shard %d stopped", id)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case state := <-reply:
		return state, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
