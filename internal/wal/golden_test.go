package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

// golden compares got with testdata/golden/<name> and returns the file's
// bytes. The files pin the on-disk and on-wire formats: a refactor is
// correct when they do not move.
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
		t.Errorf("%s: wrote %d bytes, golden file holds %d; first difference at offset %d",
			name, len(got), len(want), firstDiff(got, want))
	}
	return want
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// The golden record and internal/transport's golden frame carry the same
// (id, type, payload) and must be the same bytes: one framing, two users.
const (
	goldenFrameID   uint64 = 0x0102030405060708
	goldenFrameType byte   = 0x2a
)

var goldenFramePayload = []byte("richnote golden payload")

func TestGoldenRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.wal")
	w, err := OpenWriter(path, 0, goldenFrameID-1, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append(goldenFrameType, goldenFramePayload); err != nil || seq != goldenFrameID {
		t.Fatalf("Append = seq %#x, %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := golden(t, "record.bin", got)

	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res := replayAll(t, path)
	if len(recs) != 1 || res.Truncated || res.GoodSize != int64(len(want)) {
		t.Fatalf("replay of the golden record: %d records, result %+v", len(recs), res)
	}
	if r := recs[0]; r.seq != goldenFrameID || r.typ != goldenFrameType || !bytes.Equal(r.payload, goldenFramePayload) {
		t.Fatalf("golden record replayed as seq=%#x typ=%#x payload=%q", r.seq, r.typ, r.payload)
	}
}
