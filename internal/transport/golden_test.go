package transport

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

// TestGoldenFrame pins the wire framing, and pins it to the WAL's: the
// same (id, type, payload) as internal/wal's golden record must frame to
// the same bytes.
func TestGoldenFrame(t *testing.T) {
	const (
		id  uint64 = 0x0102030405060708
		typ byte   = 0x2a
	)
	payload := []byte("richnote golden payload")

	var buf bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&buf), id, typ, payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "frame.bin")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("writeFrame wrote % x, golden frame is % x", buf.Bytes(), want)
	}
	record, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "golden", "record.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, record) {
		t.Errorf("golden frame and golden WAL record differ: the two framings have drifted apart")
	}

	gotID, gotTyp, gotPayload, err := readFrame(bufio.NewReader(bytes.NewReader(want)))
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id || gotTyp != typ || !bytes.Equal(gotPayload, payload) {
		t.Errorf("golden frame read back as id=%#x typ=%#x payload=%q", gotID, gotTyp, gotPayload)
	}
}
