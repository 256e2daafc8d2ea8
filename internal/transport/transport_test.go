package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/richnote/richnote/internal/wal"
)

// echoHandler answers every frame with type+1 and the payload reversed, so
// tests can verify both fields round-tripped through the framing.
type echoHandler struct{}

func (echoHandler) ServeFrame(typ byte, payload []byte) (byte, []byte, error) {
	out := make([]byte, len(payload))
	for i, b := range payload {
		out[len(payload)-1-i] = b
	}
	return typ + 1, out, nil
}

func startEcho(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	payload := []byte("hello cluster")
	if err := writeFrame(bw, 42, 7, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	id, typ, got, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if id != 42 || typ != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip got id=%d typ=%d payload=%q", id, typ, got)
	}
}

func TestFrameCorruptionRejected(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, 1, 2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[wal.FrameHeaderLen+2] ^= 0xFF // flip a payload byte; CRC must catch it
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupted frame read returned %v, want ErrFrameCorrupt", err)
	}
}

func TestFrameTornTailIsEOFOrError(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, 1, 2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(torn)))
	if err == nil || errors.Is(err, io.EOF) && err == io.EOF {
		// A torn body must error; only a clean boundary reads as bare EOF.
		t.Fatalf("torn frame read returned %v, want a read error", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	// Declare an absurd frame length without paying for the bytes.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	buf.Write(hdr)
	_, _, _, err := readFrame(bufio.NewReader(&buf))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame read returned %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameLengthPrefixIsNotTrustedWithMemory: a peer that declares a
// 200 MB frame and hangs up must cost the reader no more than readChunk,
// and a large frame that does arrive must still read back intact through
// the growing buffer.
func TestFrameLengthPrefixIsNotTrustedWithMemory(t *testing.T) {
	prefix := []byte{0, 0, 0, 0, 1, 2, 3} // length prefix + the few bytes sent before the close
	frameLen := uint32(200 << 20)
	prefix[0], prefix[1], prefix[2], prefix[3] = byte(frameLen), byte(frameLen>>8), byte(frameLen>>16), byte(frameLen>>24)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(prefix)))
	runtime.ReadMemStats(&after)
	if err == nil || errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("truncated 200 MB frame read returned %v, want a body read error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > readChunk+1<<20 {
		t.Fatalf("a 200 MB length prefix made readFrame allocate %d bytes; the cap is %d", grew, readChunk)
	}

	payload := bytes.Repeat([]byte("0123456789abcdef"), (3*readChunk+12345)/16)
	var buf bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&buf), 9, 3, payload); err != nil {
		t.Fatal(err)
	}
	id, typ, got, err := readFrame(bufio.NewReader(&buf))
	if err != nil || id != 9 || typ != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("frame of %d bytes read back as id=%d typ=%d len=%d err=%v", len(payload), id, typ, len(got), err)
	}
}

func TestClientServerExchange(t *testing.T) {
	s := startEcho(t)
	c := NewClient(s.Addr(), ClientConfig{})
	defer c.Close()

	typ, resp, err := c.Call(10, []byte("abc"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if typ != 11 || string(resp) != "cba" {
		t.Fatalf("Call returned typ=%d resp=%q", typ, resp)
	}
	if c.Calls() != 1 || c.Errors() != 0 || c.Reconnects() != 0 {
		t.Fatalf("counters calls=%d errors=%d reconnects=%d", c.Calls(), c.Errors(), c.Reconnects())
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	s := startEcho(t)
	c := NewClient(s.Addr(), ClientConfig{MaxIdle: 4})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("req-%03d", i))
			typ, resp, err := c.Call(20, payload)
			if err != nil {
				errs <- err
				return
			}
			want := make([]byte, len(payload))
			for j, b := range payload {
				want[len(payload)-1-j] = b
			}
			if typ != 21 || !bytes.Equal(resp, want) {
				errs <- fmt.Errorf("call %d: typ=%d resp=%q", i, typ, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	s, err := Listen("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c := NewClient(addr, ClientConfig{})
	defer c.Close()

	if _, _, err := c.Call(1, []byte("x")); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	// Restart on the same address: the pooled connection is dead, so the
	// next call must fail its first attempt and succeed on a fresh dial.
	s2, err := Listen(addr, echoHandler{})
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer s2.Close()

	if _, _, err := c.Call(1, []byte("y")); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if c.Reconnects() == 0 {
		t.Error("no reconnect counted after server restart")
	}
	if c.Errors() == 0 {
		t.Error("no transport error counted for the dead pooled connection")
	}
}

func TestClientRefusedConnection(t *testing.T) {
	// Grab a port that nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	c := NewClient(addr, ClientConfig{})
	defer c.Close()
	if _, _, err := c.Call(1, nil); err == nil {
		t.Fatal("call to a closed port succeeded")
	}
	if c.Errors() == 0 {
		t.Error("refused dial not counted as a transport error")
	}
}

// errorHandler exercises the FrameError path.
type errorHandler struct{}

func (errorHandler) ServeFrame(typ byte, payload []byte) (byte, []byte, error) {
	return 0, nil, fmt.Errorf("no handler for type %d", typ)
}

func TestHandlerErrorSurfacesWithoutTransportError(t *testing.T) {
	s, err := Listen("127.0.0.1:0", errorHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(s.Addr(), ClientConfig{})
	defer c.Close()

	_, _, err = c.Call(99, nil)
	if err == nil || !strings.Contains(err.Error(), "no handler for type 99") {
		t.Fatalf("remote error not surfaced: %v", err)
	}
	if c.Errors() != 0 {
		t.Errorf("remote application error counted as %d transport errors", c.Errors())
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	s := startEcho(t)
	c := NewClient(s.Addr(), ClientConfig{})
	defer c.Close()

	big := make([]byte, 4<<20) // snapshot-sized
	for i := range big {
		big[i] = byte(i * 31)
	}
	typ, resp, err := c.Call(5, big)
	if err != nil {
		t.Fatalf("large call: %v", err)
	}
	if typ != 6 || len(resp) != len(big) {
		t.Fatalf("large call typ=%d len=%d", typ, len(resp))
	}
	for i := range big {
		if resp[i] != big[len(big)-1-i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

// TestClientCallOnceNoRetry pins CallOnce's contract: one exchange, one
// dial attempt, no retry — the single failure costs exactly one error,
// where Call's retry-on-fresh-dial costs two.
func TestClientCallOnceNoRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	c := NewClient(addr, ClientConfig{})
	defer c.Close()
	if _, _, err := c.CallOnce(1, nil); err == nil {
		t.Fatal("CallOnce to a closed port succeeded")
	}
	if got := c.Errors(); got != 1 {
		t.Fatalf("CallOnce counted %d errors, want exactly 1 (no retry)", got)
	}

	// Against a live server it behaves like Call.
	s := startEcho(t)
	c2 := NewClient(s.Addr(), ClientConfig{})
	defer c2.Close()
	typ, resp, err := c2.CallOnce(10, []byte("abc"))
	if err != nil {
		t.Fatalf("CallOnce: %v", err)
	}
	if typ != 11 || string(resp) != "cba" {
		t.Fatalf("CallOnce returned typ=%d resp=%q", typ, resp)
	}
}
