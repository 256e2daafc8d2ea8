package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/richnote/richnote/benchmark/gen"
)

// stub is a publish endpoint that answers from a script and counts what it
// sees: connections opened and requests per item id.
type stub struct {
	srv      *httptest.Server
	conns    atomic.Int64
	requests atomic.Int64
	mu       sync.Mutex
	seen     map[string]int
	status   func(n int64) int
}

func newStub(t *testing.T, status func(n int64) int) *stub {
	st := &stub{seen: make(map[string]int), status: status}
	st.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := st.requests.Add(1)
		buf, _ := io.ReadAll(r.Body) // a body cut short shows as a missing id below
		if _, rest, ok := strings.Cut(string(buf), `"item":{"id":`); ok {
			id, _, _ := strings.Cut(rest, ",")
			st.mu.Lock()
			st.seen[id]++
			st.mu.Unlock()
		}
		code := st.status(n)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if code == http.StatusAccepted {
			fmt.Fprint(w, `{"accepted":1,"rejected":0}`)
		} else {
			fmt.Fprint(w, `{"accepted":0,"rejected":1}`)
		}
	}))
	st.srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			st.conns.Add(1)
		}
	}
	st.srv.Start()
	t.Cleanup(st.srv.Close)
	return st
}

func stubSystem(addr string) *system {
	s := &system{sc: quickScale, front: addr}
	for c := 0; c < loadConns; c++ {
		s.conns = append(s.conns, newConn(addr))
		s.streams = append(s.streams, gen.NewPublishStream(1, c, loadConns, s.sc.users, addr))
	}
	return s
}

// The closed loop counts a 429 or a 503 as a failed publish and moves on:
// nothing is sent twice, and a refusal has no latency sample.
func TestClosedLoopCountsRefusalsAndNeverRetries(t *testing.T) {
	st := newStub(t, func(n int64) int {
		switch {
		case n%10 == 3:
			return http.StatusTooManyRequests
		case n%10 == 7:
			return http.StatusServiceUnavailable
		default:
			return http.StatusAccepted
		}
	})
	s := stubSystem(st.srv.Listener.Addr().String())
	const perConn = 200
	got := s.publishBoth(func(sent int) bool { return sent >= perConn })

	if got.ops != loadConns*perConn || st.requests.Load() != loadConns*perConn {
		t.Fatalf("sent %d, stub saw %d, want %d: a refused publish must not be sent again", got.ops, st.requests.Load(), loadConns*perConn)
	}
	if want := loadConns * perConn / 5; got.failed != want {
		t.Errorf("failed = %d, want %d (every 429 and 503)", got.failed, want)
	}
	if len(got.lat) != got.ops-got.failed || len(got.at) != len(got.lat) {
		t.Errorf("%d latency samples for %d accepted publishes: refusals must have none", len(got.lat), got.ops-got.failed)
	}
	if got.envelopes != int64(got.ops-got.failed) || s.acked.Load() != got.envelopes {
		t.Errorf("envelopes %d, acked %d, want %d", got.envelopes, s.acked.Load(), got.ops-got.failed)
	}
	for id, n := range st.seen {
		if n != 1 {
			t.Fatalf("item %s was sent %d times", id, n)
		}
	}
	if len(st.seen) != loadConns*perConn {
		t.Errorf("%d distinct items, want %d", len(st.seen), loadConns*perConn)
	}
}

// Load is sized for two cores: the generator opens two connections and no
// more, however many requests it sends.
func TestExactlyTwoConnections(t *testing.T) {
	st := newStub(t, func(int64) int { return http.StatusAccepted })
	s := stubSystem(st.srv.Listener.Addr().String())
	s.publishBoth(func(sent int) bool { return sent >= 300 })
	if got := st.conns.Load(); got != loadConns {
		t.Errorf("stub saw %d connections, want %d", got, loadConns)
	}
	for c, cn := range s.conns {
		if cn.dials != 1 {
			t.Errorf("connection %d dialled %d times, want 1", c, cn.dials)
		}
	}
}

// Feed replies are longer than net/http's 2 KiB buffer and arrive chunked.
func TestConnReadsChunkedAndSizedBodies(t *testing.T) {
	long := strings.Repeat("0123456789", 700)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			for i := 0; i < 3; i++ {
				fmt.Fprint(w, long)
				w.(http.Flusher).Flush()
			}
			return
		}
		fmt.Fprint(w, "short")
	}))
	defer srv.Close()
	addr := srv.Listener.Addr().String()
	c := newConn(addr)
	defer c.close()
	for i := 0; i < 3; i++ {
		status, body, tm, err := c.roundTrip(gen.AppendRequest(nil, "GET", "/chunked", addr, nil))
		if err != nil || status != 200 || string(body) != long+long+long {
			t.Fatalf("chunked reply: status %d, %d bytes, err %v", status, len(body), err)
		}
		if tm.end.Before(tm.first) || tm.first.Before(tm.wrote) || tm.wrote.Before(tm.start) {
			t.Fatalf("timing marks out of order: %+v", tm)
		}
		status, body, _, err = c.roundTrip(gen.AppendRequest(nil, "GET", "/sized", addr, nil))
		if err != nil || status != 200 || string(body) != "short" {
			t.Fatalf("sized reply: status %d, body %q, err %v", status, body, err)
		}
	}
	if c.dials != 1 {
		t.Errorf("%d dials for six requests on one keep-alive connection", c.dials)
	}
	if got := acceptedIn([]byte(`{"accepted":47,"rejected":17}`)); got != 47 {
		t.Errorf("acceptedIn = %d, want 47", got)
	}
}
