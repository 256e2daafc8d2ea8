package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
)

// BenchmarkFanoutCycle is the benchmark's fanout workload in process: 150
// shared topics with fixed 64-follower sets over 10,000 users on cellular
// with a binding 5 MB/week budget; one op is 32 publishes through the HTTP
// handler (2,048 envelopes) and the forced round that schedules them.
func BenchmarkFanoutCycle(b *testing.B) {
	const users, topics, followers, perCycle = 10000, 150, 64, 32
	m := network.AlwaysCellMatrix()
	s, err := New(Config{
		Seed:         42,
		IngestBuffer: 65536,
		Default:      UserConfig{NetworkMatrix: &m, WeeklyBudgetBytes: 5 << 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()

	rng := rand.New(rand.NewSource(1))
	kinds := []string{"friend-feed", "artist-page", "playlist"}
	bodies := make([][]byte, topics)
	for t := range bodies {
		var req PublishRequest
		req.Topic.Kind = kinds[0]
		if r := rng.Intn(100); r >= 70 {
			req.Topic.Kind = kinds[1+(r-70)/15]
		}
		req.Topic.Entity = int64(1_000_000 + t)
		for _, u := range rng.Perm(users)[:followers] {
			req.Recipients = append(req.Recipients, notif.UserID(u+1))
		}
		req.Item = audioItem(t+1, 1)
		if bodies[t], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	h := s.Handler()
	cycle := func() {
		for i := 0; i < perCycle; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/publish", bytes.NewReader(bodies[rng.Intn(topics)]))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				b.Fatalf("publish answered %d: %s", rec.Code, rec.Body)
			}
		}
		if err := s.Tick(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*topics/perCycle; i++ {
		cycle() // registers the followers and grows the feeds' buffers
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.N*perCycle*followers)/b.Elapsed().Seconds(), "env/s")
}
