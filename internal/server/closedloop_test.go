package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/notif"
)

// loadOpts configures runLoad, the closed loop that drives the service
// tests through one HTTP front: workers goroutines each publish one
// synthetic event, wait for the answer, and repeat until events have been
// claimed or ctx ends.
type loadOpts struct {
	url             string // front base URL
	events, workers int
	users           int   // recipients and senders are drawn from 1..users
	seed            int64 // worker w draws from seed + w*1_000_003
	tickEvery       int   // POST /v1/tick after every n accepted events; 0 never
	retries         int   // per-event retry budget; 0 means 10
	client          *http.Client
}

// loadResult counts accepted events and events abandoned after the
// retry budget (or when ctx ended mid-retry).
type loadResult struct{ accepted, failed int }

func runLoad(ctx context.Context, o loadOpts) loadResult {
	if o.retries == 0 {
		o.retries = 10
	}
	if o.client == nil {
		o.client = &http.Client{Timeout: 10 * time.Second}
	}
	var next, accepted, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.events || ctx.Err() != nil {
					return
				}
				if !o.publish(ctx, loadEvent(rng, o.users, i)) {
					failed.Add(1)
					continue
				}
				if n := accepted.Add(1); o.tickEvery > 0 && n%int64(o.tickEvery) == 0 {
					_, _, _ = o.post(ctx, "/v1/tick", nil)
				}
			}
		}(rand.New(rand.NewSource(o.seed + int64(w)*1_000_003)))
	}
	wg.Wait()
	return loadResult{accepted: int(accepted.Load()), failed: int(failed.Load())}
}

// loadEvent synthesizes publication i: 70% friend feeds, the rest split
// between artist pages and playlists, over 10 entities per kind, with a
// uniform recipient and sender and plausible audio popularity scores.
func loadEvent(rng *rand.Rand, users, i int) PublishRequest {
	var req PublishRequest
	switch u := rng.Float64(); {
	case u < 0.7:
		req.Topic.Kind = "friend-feed"
	case u < 0.85:
		req.Topic.Kind = "artist-page"
	default:
		req.Topic.Kind = "playlist"
	}
	req.Topic.Entity = int64(rng.Intn(10) + 1)
	req.Recipients = []notif.UserID{notif.UserID(rng.Intn(users) + 1)}
	req.Item = notif.Item{
		ID:     notif.ItemID(i + 1),
		Kind:   notif.KindAudio,
		Sender: notif.UserID(rng.Intn(users) + 1),
		Meta: notif.Metadata{
			TrackID:          int64(i + 1),
			TrackPopularity:  1 + rng.Float64()*99,
			ArtistPopularity: 1 + rng.Float64()*99,
		},
		TieStrength: rng.Float64(),
	}
	return req
}

// publish posts one event and reports whether it was accepted. A 429 or
// 503 is retried after its Retry-After (1 s when absent or zero), a
// transport error after transportBackoff, at most o.retries times.
func (o *loadOpts) publish(ctx context.Context, ev PublishRequest) bool {
	body, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	for attempt := 0; attempt <= o.retries; attempt++ {
		status, retryAfter, err := o.post(ctx, "/v1/publish", body)
		wait := transportBackoff(attempt)
		switch {
		case err != nil:
		case status == http.StatusAccepted || status == http.StatusOK:
			return true
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			wait = time.Second
			if d, ok := parseRetryAfter(retryAfter); ok && d > 0 {
				wait = d
			}
		default:
			return false
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return false
		}
	}
	return false
}

// post sends one POST to the front and returns the status and the
// Retry-After header of the answer.
func (o *loadOpts) post(ctx context.Context, path string, body []byte) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := o.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// transportBackoff returns the wait before retrying a failed transport
// attempt: 100 ms doubling per attempt, capped at 2 s.
func transportBackoff(attempt int) time.Duration {
	return min(100*time.Millisecond<<min(attempt, 5), 2*time.Second)
}

// parseRetryAfter reads a delta-seconds Retry-After, the only form the
// fronts emit (retryAfterSeconds). It returns ok=false for absent,
// negative or malformed values.
func parseRetryAfter(v string) (time.Duration, bool) {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		name  string
		value string
		want  time.Duration
		ok    bool
	}{
		{"empty", "", 0, false},
		{"delta seconds", "7", 7 * time.Second, true},
		{"zero delta", "0", 0, true},
		{"negative delta", "-3", 0, false},
		{"malformed", "soon", 0, false},
		{"fractional seconds rejected", "1.5", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseRetryAfter(tc.value)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)",
					tc.value, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestTransportBackoffCapped(t *testing.T) {
	if d := transportBackoff(0); d != 100*time.Millisecond {
		t.Errorf("attempt 0: %v, want 100ms", d)
	}
	if d := transportBackoff(1); d != 200*time.Millisecond {
		t.Errorf("attempt 1: %v, want 200ms", d)
	}
	prev := time.Duration(0)
	for attempt := 0; attempt < 100; attempt++ {
		d := transportBackoff(attempt)
		if d <= 0 || d > 2*time.Second {
			t.Fatalf("attempt %d: backoff %v outside (0, 2s]", attempt, d)
		}
		if d < prev {
			t.Fatalf("attempt %d: backoff %v shrank below %v", attempt, d, prev)
		}
		prev = d
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestLoadRetriesTransportErrors drives the closed loop through a
// transport that fails every other request before it reaches the server:
// every event must still be accepted, each reaching the server once.
func TestLoadRetriesTransportErrors(t *testing.T) {
	var served, calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()

	inner := ts.Client().Transport
	flaky := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if calls.Add(1)%2 == 1 {
			return nil, errors.New("simulated connection reset")
		}
		return inner.RoundTrip(r)
	})
	res := runLoad(context.Background(), loadOpts{
		url: ts.URL, events: 20, workers: 4, users: 5, seed: 1,
		client: &http.Client{Transport: flaky, Timeout: 5 * time.Second},
	})
	if res.accepted != 20 || res.failed != 0 {
		t.Errorf("accepted=%d failed=%d, want 20/0: transport errors must be retried", res.accepted, res.failed)
	}
	if got := served.Load(); got != 20 {
		t.Errorf("server handled %d publishes, want 20", got)
	}
	if calls.Load() <= served.Load() {
		t.Errorf("transport saw %d calls for %d served: expected retried failures on top", calls.Load(), served.Load())
	}
}

// TestLoadGivesUpAfterRetries pins the abandonment path: a transport that
// always fails must exhaust the retry budget and count the event failed.
func TestLoadGivesUpAfterRetries(t *testing.T) {
	dead := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("simulated network partition")
	})
	res := runLoad(context.Background(), loadOpts{
		url: "http://127.0.0.1:0", events: 2, workers: 2, users: 2, seed: 1, retries: 2,
		client: &http.Client{Transport: dead, Timeout: time.Second},
	})
	if res.accepted != 0 || res.failed != 2 {
		t.Errorf("accepted=%d failed=%d, want 0/2", res.accepted, res.failed)
	}
}
