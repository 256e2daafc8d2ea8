package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
)

// testConfig builds a deterministic manual-mode config: always-on cellular
// so every round has connectivity, and a generous budget so selection is
// never budget-starved.
func testConfig(shards int) Config {
	m := network.AlwaysCellMatrix()
	return Config{
		Shards: shards,
		Seed:   42,
		Default: UserConfig{
			NetworkMatrix:     &m,
			StartState:        network.StateCell,
			WeeklyBudgetBytes: 1 << 30,
		},
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func friendTopic(entity int64) pubsub.TopicID {
	return pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: entity}
}

func audioItem(id int, sender notif.UserID) notif.Item {
	return notif.Item{
		ID:     notif.ItemID(id),
		Kind:   notif.KindAudio,
		Sender: sender,
		Meta: notif.Metadata{
			TrackID:          int64(id),
			TrackPopularity:  80,
			ArtistPopularity: 60,
		},
		TieStrength: 0.8,
	}
}

// TestIntegrationEndToEnd is the acceptance-criteria test: a two-shard
// server behind a real HTTP listener, driven by the closed loop (runLoad)
// — >=100 events, >=3 rounds — then deliveries, metrics and a clean
// shutdown drain are asserted over the API.
func TestIntegrationEndToEnd(t *testing.T) {
	s := startServer(t, testConfig(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := runLoad(context.Background(), loadOpts{
		url: ts.URL, events: 120, workers: 4, users: 10, seed: 7,
		tickEvery: 30, // 120 events => 4 synchronized rounds under load
	})
	if res.accepted < 100 {
		t.Fatalf("accepted %d events, want >= 100 (result: %+v)", res.accepted, res)
	}

	// A few extra rounds flush the slower-cadence topics (artist pages
	// drain every 2nd round, playlists every 4th).
	for i := 0; i < 4; i++ {
		httpTick(t, ts.URL)
	}

	minRound := 1 << 30
	for _, snap := range s.Snapshots() {
		if snap.Round < minRound {
			minRound = snap.Round
		}
		if snap.Err != "" {
			t.Errorf("shard %d reported round error: %s", snap.Shard, snap.Err)
		}
	}
	if minRound < 3 {
		t.Fatalf("slowest shard advanced only %d rounds, want >= 3", minRound)
	}

	// Deliveries must be observable over the API for at least one user.
	total := 0
	for u := 1; u <= 10; u++ {
		var dr DeliveriesResponse
		getJSON(t, fmt.Sprintf("%s/v1/users/%d/deliveries", ts.URL, u), &dr)
		for _, d := range dr.Deliveries {
			if d.Recipient != notif.UserID(u) {
				t.Errorf("user %d feed contains delivery for %d", u, d.Recipient)
			}
		}
		total += len(dr.Deliveries)
	}
	if total == 0 {
		t.Fatal("no deliveries visible over the API after load + rounds")
	}

	// /metrics must expose nonzero service counters.
	body := httpGet(t, ts.URL+"/metrics")
	for _, metric := range []string{
		"richnote_notifications_arrived_total",
		"richnote_notifications_delivered_total",
		"richnote_shard_rounds_total",
	} {
		if !metricNonzero(body, metric) {
			t.Errorf("metric %s absent or zero in exposition:\n%s", metric, body)
		}
	}

	// Shutdown must drain cleanly and flip healthz to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after shutdown: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d, want 503", resp.StatusCode)
	}
}

func httpTick(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/tick", "application/json", nil)
	if err != nil {
		t.Fatalf("tick: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status = %d", resp.StatusCode)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(httpGet(t, url)), v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// metricNonzero reports whether any sample line for the metric carries a
// nonzero value.
func metricNonzero(exposition, metric string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, metric) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" && fields[1] != "0.0" {
			return true
		}
	}
	return false
}

func TestManualTicksAdvanceRounds(t *testing.T) {
	s := startServer(t, testConfig(3))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := s.Tick(ctx); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	for _, snap := range s.Snapshots() {
		if snap.Round != 3 {
			t.Errorf("shard %d at round %d after 3 ticks", snap.Shard, snap.Round)
		}
	}
}

func TestTickLifecycleErrors(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Tick(context.Background()); err == nil {
		t.Error("Tick before Start should fail")
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.Start(); err == nil {
		t.Error("second Start should fail")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Tick(context.Background()); err == nil {
		t.Error("Tick after Shutdown should fail")
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestWallClockTicking(t *testing.T) {
	cfg := testConfig(2)
	cfg.RoundEvery = 5 * time.Millisecond
	s := startServer(t, cfg)
	deadline := time.Now().Add(5 * time.Second)
	for {
		minRound := 1 << 30
		for _, snap := range s.Snapshots() {
			if snap.Round < minRound {
				minRound = snap.Round
			}
		}
		if minRound >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards did not self-tick to round 2 in time (slowest at %d)", minRound)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShutdownDrainsIngest(t *testing.T) {
	s := startServer(t, testConfig(2))
	const events = 40
	for i := 1; i <= events; i++ {
		user := notif.UserID(i%5 + 1)
		if err := s.Publish(friendTopic(1), user, audioItem(i, 99)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	arrived := 0
	for _, snap := range s.Snapshots() {
		if snap.Round < 1 {
			t.Errorf("shard %d ran no final round on shutdown", snap.Shard)
		}
		arrived += snap.Report.Arrived
	}
	if arrived != events {
		t.Errorf("drain delivered %d arrivals to schedulers, want %d", arrived, events)
	}
}

func TestBackpressure(t *testing.T) {
	cfg := testConfig(1)
	cfg.IngestBuffer = 8
	cfg.HighWater = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The shard goroutine is intentionally not started, so ingest only
	// fills; the high-water mark must start rejecting at exactly
	// HighWater queued publications.
	var rejected int
	for i := 1; i <= 10; i++ {
		err := s.Publish(friendTopic(1), 1, audioItem(i, 2))
		if err != nil && err != ErrBackpressure {
			t.Fatalf("publish %d: unexpected error %v", i, err)
		}
		if (err == nil) != (i <= cfg.HighWater) {
			t.Errorf("publish %d: err = %v, want the first %d accepted and the rest refused", i, err, cfg.HighWater)
		}
		if err != nil {
			rejected++
		}
	}
	if rejected != 6 {
		t.Errorf("rejected %d publications, want 6 (4 fit under high water)", rejected)
	}
	if got := s.Backpressured() + s.Dropped(); got != 6 {
		t.Errorf("Backpressured() + Dropped() = %d, want 6", got)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got := metricSum(t, httpGet(t, ts.URL+"/metrics"), "richnote_shard_ingest_depth"); got != float64(cfg.HighWater) {
		t.Errorf("ingest depth gauge = %v at the high-water mark, want %d", got, cfg.HighWater)
	}

	// A drain frees the whole mark again: HighWater more fit, one more
	// does not.
	s.shards[0].drainIngest()
	for i := 1; i <= cfg.HighWater+1; i++ {
		err := s.Publish(friendTopic(1), 1, audioItem(100+i, 2))
		if want := i <= cfg.HighWater; (err == nil) != want {
			t.Errorf("after drain, publish %d: err = %v, want accepted %v", i, err, want)
		}
	}

	// The HTTP layer must surface backpressure as 429 + Retry-After.
	resp := postPublish(t, ts.URL, PublishRequest{
		Recipients: []notif.UserID{1},
		Item:       audioItem(11, 2),
	}, "friend-feed", 1)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated publish status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
}

func postPublish(t *testing.T, base string, req PublishRequest, kind string, entity int64) *http.Response {
	t.Helper()
	req.Topic.Kind = kind
	req.Topic.Entity = entity
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/publish", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/publish: %v", err)
	}
	return resp
}

// badRequests are requests both fronts must answer with 400.
// FuzzDecodePublish seeds its corpus with their bodies.
var badRequests = []struct {
	name, method, path, body string
}{
	{"malformed json", "POST", "/v1/publish", `{"topic":`},
	{"unknown topic kind", "POST", "/v1/publish", `{"topic":{"kind":"podcast","entity":1},"recipients":[1],"item":{"id":1}}`},
	{"no recipients", "POST", "/v1/publish", `{"topic":{"kind":"friend-feed","entity":1},"item":{"id":1}}`},
	{"unknown field", "POST", "/v1/publish", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1},"extra":true}`},
	{"over 1 MiB body", "POST", "/v1/publish", "{" + strings.Repeat(" ", 1<<20) + "}"},
	{"second object", "POST", "/v1/publish", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1}} {"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":2}}`},
	{"trailing garbage", "POST", "/v1/publish", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1}}garbage`},
	{"bad user id", "GET", "/v1/users/zero/deliveries", ""},
}

// TestHTTPBadRequests sends the same bad requests to a standalone server
// and to a router: both fronts must answer 400 with identical bodies.
func TestHTTPBadRequests(t *testing.T) {
	s := startServer(t, testConfig(1))
	standalone := httptest.NewServer(s.Handler())
	defer standalone.Close()
	fronts := map[string]string{"server": standalone.URL, "router": startCluster(t, 1, t.TempDir(), "a").front.URL}

	for _, tc := range badRequests {
		bodies := map[string]string{}
		for front, base := range fronts {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.name, front, err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s via %s: read: %v", tc.name, front, err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s via %s: status = %d, want 400", tc.name, front, resp.StatusCode)
			}
			bodies[front] = string(b)
		}
		if bodies["server"] != bodies["router"] {
			t.Errorf("%s: server body %q != router body %q", tc.name, bodies["server"], bodies["router"])
		}
	}
}

func TestDeliveriesEmptyForUnknownUser(t *testing.T) {
	s := startServer(t, testConfig(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var dr DeliveriesResponse
	getJSON(t, ts.URL+"/v1/users/12345/deliveries", &dr)
	if dr.Deliveries == nil || len(dr.Deliveries) != 0 {
		t.Errorf("unknown user deliveries = %#v, want empty non-nil slice", dr.Deliveries)
	}
}

func TestAutoRegisterDisabled(t *testing.T) {
	cfg := testConfig(1)
	cfg.DisableAutoRegister = true
	cfg.Users = []UserConfig{{User: 1}}
	s := startServer(t, cfg)
	ctx := context.Background()

	if err := s.Publish(friendTopic(1), 2, audioItem(1, 1)); err != nil {
		t.Fatalf("publish to unknown user should buffer, got %v", err)
	}
	if err := s.Publish(friendTopic(1), 1, audioItem(2, 2)); err != nil {
		t.Fatalf("publish to registered user: %v", err)
	}
	if err := s.Tick(ctx); err != nil {
		t.Fatalf("tick: %v", err)
	}
	snap := s.Snapshots()[0]
	if snap.Users != 1 {
		t.Errorf("users = %d after publish to unknown user, want 1 (no auto-register)", snap.Users)
	}
	if s.Backpressured()+s.Dropped() == 0 {
		t.Error("unknown-user publication was not counted as rejected")
	}
	if snap.Report.Arrived != 1 {
		t.Errorf("arrived = %d, want 1 (only the registered user's item)", snap.Report.Arrived)
	}
}

func TestPreRegisteredDuplicateUser(t *testing.T) {
	cfg := testConfig(2)
	cfg.Users = []UserConfig{{User: 7}, {User: 7}}
	if _, err := New(cfg); err == nil {
		t.Fatal("duplicate pre-registered user should fail New")
	}
}
