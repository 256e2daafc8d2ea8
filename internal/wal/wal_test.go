package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func mustWriter(t *testing.T, path string, policy SyncPolicy) *Writer {
	t.Helper()
	w, err := OpenWriter(path, 0, 0, policy)
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	return w
}

type rec struct {
	seq     uint64
	typ     byte
	payload []byte
}

func replayAll(t *testing.T, path string) ([]rec, ReplayResult) {
	t.Helper()
	var got []rec
	res, err := ReplayFile(path, func(seq uint64, typ byte, payload []byte) error {
		got = append(got, rec{seq: seq, typ: typ, payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	return got, res
}

func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w := mustWriter(t, path, SyncRound)
	want := []rec{
		{typ: 1, payload: []byte("hello")},
		{typ: 2, payload: nil},
		{typ: 1, payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{typ: 3, payload: []byte{0}},
	}
	for i := range want {
		seq, err := w.Append(want[i].typ, want[i].payload)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want[i].seq = seq
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, res := replayAll(t, path)
	if res.Truncated {
		t.Fatal("clean log reported truncated")
	}
	if res.LastSeq != 4 || res.Records != 4 {
		t.Fatalf("replay result %+v, want lastSeq 4 records 4", res)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].seq != want[i].seq || got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != res.GoodSize {
		t.Fatalf("GoodSize %d, file size %d", res.GoodSize, fi.Size())
	}
}

func TestMissingFileIsEmptyLog(t *testing.T) {
	res, err := ReplayFile(filepath.Join(t.TempDir(), "nope.wal"), nil)
	if err != nil {
		t.Fatalf("ReplayFile on missing file: %v", err)
	}
	if res.Records != 0 || res.Truncated || res.GoodSize != 0 {
		t.Fatalf("missing file replay %+v, want zero", res)
	}
}

// TestTruncatedTailTolerated cuts the file at every byte offset inside
// the final record and requires replay to tolerate the torn tail,
// returning exactly the intact prefix.
func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	w := mustWriter(t, full, SyncNever)
	for i := 0; i < 3; i++ {
		if _, err := w.Append(1, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	_, fullRes := replayAll(t, full)
	lastStart := int(fullRes.GoodSize) - (4 + 9 + len("payload-2") + 4)
	for cut := lastStart + 1; cut < len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := replayAll(t, path)
		if !res.Truncated {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if len(got) != 2 || res.LastSeq != 2 {
			t.Fatalf("cut %d: %d records lastSeq %d, want 2 records lastSeq 2", cut, len(got), res.LastSeq)
		}
		if res.GoodSize != int64(lastStart) {
			t.Fatalf("cut %d: GoodSize %d, want %d", cut, res.GoodSize, lastStart)
		}
	}
}

// TestAppendAfterTornTail reopens a torn log at GoodSize and appends; the
// new record must replace the garbage tail.
func TestAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w := mustWriter(t, path, SyncNever)
	for i := 0; i < 2; i++ {
		if _, err := w.Append(1, []byte("keep")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append garbage that looks like a partial record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, res := replayAll(t, path)
	if !res.Truncated || res.Records != 2 {
		t.Fatalf("torn replay %+v, want 2 records truncated", res)
	}
	w2, err := OpenWriter(path, res.GoodSize, res.LastSeq, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w2.Append(2, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("seq after reopen %d, want 3", seq)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, res2 := replayAll(t, path)
	if res2.Truncated || len(got) != 3 || got[2].typ != 2 || string(got[2].payload) != "after" {
		t.Fatalf("after reopen: %+v %+v", got, res2)
	}
}

// TestTornMidFileRejected flips a byte in a non-final record: intact data
// follows the damage, so replay must refuse with ErrCorrupt rather than
// skip the hole.
func TestTornMidFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w := mustWriter(t, path, SyncNever)
	for i := 0; i < 3; i++ {
		if _, err := w.Append(1, []byte("sixteen-byte-pay")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (offset 13 is inside it).
	data[13] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayFile(path, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: err %v, want ErrCorrupt", err)
	}
}

// TestCorruptFinalRecordTolerated flips a byte in the last record: the
// damage reaches EOF, so it is the torn tail and must be dropped, not
// fatal.
func TestCorruptFinalRecordTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w := mustWriter(t, path, SyncNever)
	for i := 0; i < 2; i++ {
		if _, err := w.Append(1, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // last CRC byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := replayAll(t, path)
	if !res.Truncated || len(got) != 1 {
		t.Fatalf("corrupt final record: %d records truncated=%t, want 1 true", len(got), res.Truncated)
	}
}

func TestResetCompactsAndKeepsSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w := mustWriter(t, path, SyncRound)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(1, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	seq, err := w.Append(2, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("seq after Reset %d, want 6 (monotonic across compaction)", seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := replayAll(t, path)
	if len(got) != 1 || got[0].seq != 6 || string(got[0].payload) != "new" {
		t.Fatalf("after Reset: %+v %+v", got, res)
	}
}

// TestAppendZeroAlloc pins the hot-path property: once the bufio buffer
// exists, Append with a reused payload allocates nothing.
func TestAppendZeroAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w := mustWriter(t, path, SyncNever)
	payload := bytes.Repeat([]byte{0x42}, 128)
	if _, err := w.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := w.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocated %.1f objects/op in steady state, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.Reset()
	e.U8(7)
	e.U32(0xDEADBEEF)
	e.U64(1 << 60)
	e.I64(-42)
	e.F64(3.14159)
	e.F64(0)
	e.Bool(true)
	e.Bool(false)
	e.Str("")
	e.Str("snapshot")
	e.Time(time.Time{})
	instant := time.Date(2015, 6, 1, 13, 45, 0, 123, time.UTC)
	e.Time(instant)

	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 %d", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 %x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Fatalf("U64 %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 %d", v)
	}
	if v := d.F64(); v != 3.14159 {
		t.Fatalf("F64 %f", v)
	}
	if v := d.F64(); v != 0 {
		t.Fatalf("F64 zero %f", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool")
	}
	if v := d.Str(); v != "" {
		t.Fatalf("Str empty %q", v)
	}
	if v := d.Str(); v != "snapshot" {
		t.Fatalf("Str %q", v)
	}
	if v := d.Time(); !v.IsZero() {
		t.Fatalf("zero time decoded to %v", v)
	}
	if v := d.Time(); !v.Equal(instant) {
		t.Fatalf("time %v, want %v", v, instant)
	}
	if d.Err() != nil {
		t.Fatalf("decode err: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
	// Short-buffer reads latch an error instead of panicking.
	if v := d.U64(); v != 0 || d.Err() == nil {
		t.Fatal("read past end did not latch error")
	}
}

func TestDecoderCountGuardsAllocation(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // absurd count with no data behind it
	d := NewDecoder(e.Bytes())
	if n := d.Count(8, "items"); n != 0 || d.Err() == nil {
		t.Fatalf("Count accepted absurd value: n=%d err=%v", n, d.Err())
	}
}

// sample exercises every Codec primitive and helper once.
type sample struct {
	A  uint8
	B  uint32
	C  uint64
	D  int64
	E  float64
	F  bool
	G  string
	H  []byte
	I  time.Time
	J  SyncPolicy // a named int riding as i64
	K  int        // riding as u32
	L  []string
	On bool
	M  uint64 // present only when On
}

func sampleFields(c *Codec, s *sample) {
	c.U8(&s.A)
	c.U32(&s.B)
	c.U64(&s.C)
	c.I64(&s.D)
	c.F64(&s.E)
	c.Bool(&s.F)
	c.Str(&s.G)
	c.Blob(&s.H)
	c.Time(&s.I)
	Int(c, &s.J)
	c.IntU32(&s.K)
	Slice(c, &s.L, 4, "strings", (*Codec).Str)
	c.Bool(&s.On)
	if s.On {
		c.U64(&s.M)
	}
}

// TestCodecOneDescriptionBothWays: a Fields function run through a Codec
// writes exactly what the Encoder primitives would, reads it back to an
// equal value, and Finish rejects both a short payload and trailing bytes.
func TestCodecOneDescriptionBothWays(t *testing.T) {
	in := sample{
		A: 7, B: 0xDEADBEEF, C: 1 << 60, D: -42, E: 3.14159, F: true, G: "snapshot", H: []byte{1, 2, 3},
		I: time.Date(2015, 6, 1, 13, 45, 0, 123, time.UTC), J: SyncNever, K: 65536, L: []string{"a", ""}, On: true, M: 99,
	}
	got := Marshal(sampleFields, &in)

	var e Encoder
	e.U8(in.A)
	e.U32(in.B)
	e.U64(in.C)
	e.I64(in.D)
	e.F64(in.E)
	e.Bool(in.F)
	e.Str(in.G)
	e.Str(string(in.H)) // Blob has Str's layout
	e.Time(in.I)
	e.I64(int64(in.J))
	e.U32(uint32(in.K))
	e.U32(2)
	e.Str("a")
	e.Str("")
	e.Bool(true)
	e.U64(in.M)
	if !bytes.Equal(got, e.Bytes()) {
		t.Fatalf("Codec wrote % x, Encoder wrote % x", got, e.Bytes())
	}

	var out sample
	if err := Unmarshal(sampleFields, got, "sample", &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	if err := Unmarshal(sampleFields, append(got[:len(got):len(got)], 0), "sample", &out); !errors.Is(err, ErrDecode) {
		t.Fatalf("trailing byte: err %v, want ErrDecode", err)
	}
	if err := Unmarshal(sampleFields, got[:len(got)-1], "sample", &out); !errors.Is(err, ErrDecode) {
		t.Fatalf("short payload: err %v, want ErrDecode", err)
	}

	// A semantic failure latches like a short read: first error wins and
	// later reads yield zeros.
	c := DecodeFrom(got)
	boom := errors.New("boom")
	c.Fail(boom)
	c.Fail(errors.New("second"))
	var a uint8
	if c.U8(&a); a != 0 || !errors.Is(c.Finish("sample"), boom) {
		t.Fatalf("after Fail: read %d, Finish %v", a, c.Finish("sample"))
	}
}

// TestCodecCountGuardsAllocation: the decode side of Count and Slice
// refuses a count the remaining bytes cannot back.
func TestCodecCountGuardsAllocation(t *testing.T) {
	var e Encoder
	e.U32(1 << 30)
	var ss []string
	c := DecodeFrom(e.Bytes())
	if Slice(&c, &ss, 4, "strings", (*Codec).Str); len(ss) != 0 || c.Err() == nil {
		t.Fatalf("Slice accepted an absurd count: len %d, err %v", len(ss), c.Err())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing write leaves the original untouched and no temp litter.
	wantErr := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, werr := w.Write([]byte("partial")); werr != nil {
			return werr
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err %v, want boom", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "old" {
		t.Fatalf("failed write clobbered target: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
	// A successful write replaces the content.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write([]byte("new-content"))
		return werr
	}); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "new-content" {
		t.Fatalf("content %q, want new-content", data)
	}
}
