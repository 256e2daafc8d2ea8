package gen

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The same seed gives the same bytes on each connection, whatever else has
// happened; another seed or another connection gives other bytes.
func TestSameSeedSameBytes(t *testing.T) {
	render := func(seed int64, conn int) []byte {
		s := NewPublishStream(seed, conn, 2, 10000, "127.0.0.1:1")
		var all []byte
		for i := 0; i < 500; i++ {
			all = append(all, s.Next()...)
		}
		return all
	}
	a, b := render(7, 0), render(7, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed, one connection, two different request streams")
	}
	if bytes.Equal(a, render(8, 0)) {
		t.Error("seeds 7 and 8 give the same stream")
	}
	if bytes.Equal(a, render(7, 1)) {
		t.Error("connections 0 and 1 send the same stream")
	}

	fan := func(seed int64) []byte {
		topics := NewFanoutTopics(seed, 10000, 150, 64)
		s := NewFanoutStream(seed, topics, "127.0.0.1:1")
		var all []byte
		for i := 0; i < 100; i++ {
			req, n := s.Next()
			if n != 64 {
				t.Fatalf("publish names %d recipients, want 64", n)
			}
			all = append(all, req...)
		}
		return all
	}
	if !bytes.Equal(fan(7), fan(7)) {
		t.Fatal("one seed, two different fanout streams")
	}
	if bytes.Equal(fan(7), fan(8)) {
		t.Error("seeds 7 and 8 give the same fanout stream")
	}
}

// What the server decodes with DisallowUnknownFields must decode here, and
// the id must say who the item is for.
func TestBodiesAreThePublishSchema(t *testing.T) {
	type body struct {
		Topic struct {
			Kind   string `json:"kind"`
			Entity int64  `json:"entity"`
		} `json:"topic"`
		Recipients []int64 `json:"recipients"`
		Item       struct {
			ID        int64 `json:"id"`
			Kind      int   `json:"kind"`
			Sender    int64 `json:"sender"`
			Recipient int64 `json:"recipient"`
			Meta      struct {
				TrackID          int64   `json:"track_id"`
				TrackPopularity  float64 `json:"track_popularity"`
				ArtistPopularity float64 `json:"artist_popularity"`
			} `json:"meta"`
			TieStrength float64 `json:"tie_strength"`
		} `json:"item"`
	}
	decode := func(raw []byte) body {
		t.Helper()
		var b body
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&b); err != nil {
			t.Fatalf("body does not decode: %v\n%s", err, raw)
		}
		return b
	}

	s := NewPublishStream(3, 1, 2, 10000, "h")
	kinds := map[string]int{}
	for i := 0; i < 2000; i++ {
		s.Next()
		b := decode(s.Body)
		kinds[b.Topic.Kind]++
		if b.Item.Recipient < 1 || b.Item.Recipient > 10000 || b.Topic.Entity != b.Item.Recipient {
			t.Fatalf("recipient %d on topic entity %d: want a per-recipient feed of a user in 1..10000", b.Item.Recipient, b.Topic.Entity)
		}
		if b.Item.ID%IDStride != b.Item.Recipient || !s.Sent(b.Item.ID) {
			t.Fatalf("id %d does not name recipient %d of this stream", b.Item.ID, b.Item.Recipient)
		}
		if !bytes.HasSuffix(s.Request, s.Body) || !bytes.HasPrefix(s.Request, []byte("POST /v1/publish HTTP/1.1\r\n")) {
			t.Fatalf("request does not carry the body:\n%s", s.Request)
		}
	}
	if s.Sent(2000*2*IDStride + IDStride + 5) {
		t.Error("an id beyond the stream's position counts as sent")
	}
	if s.Sent(5) { // sequence 0 belongs to connection 0
		t.Error("connection 1 claims an id of connection 0")
	}
	// 70/15/15, within sampling error.
	if f := kinds["friend-feed"]; f < 1300 || f > 1500 {
		t.Errorf("%d of 2000 publishes on friend feeds, want about 1400", f)
	}
	if a, p := kinds["artist-page"], kinds["playlist"]; a < 230 || a > 370 || p < 230 || p > 370 {
		t.Errorf("artist pages %d, playlists %d of 2000, want about 300 each", a, p)
	}

	topics := NewFanoutTopics(3, 10000, 150, 64)
	fs := NewFanoutStream(3, topics, "h")
	fs.Next()
	b := decode(fs.Body)
	topic := int(b.Item.ID % IDStride)
	if len(b.Recipients) != 64 || b.Topic.Entity != int64(FanoutEntityBase+topic) {
		t.Fatalf("fanout publish: %d recipients on entity %d, id names topic %d", len(b.Recipients), b.Topic.Entity, topic)
	}
	for _, r := range b.Recipients {
		if !topics.Follows(topic, int(r)) {
			t.Fatalf("recipient %d does not follow topic %d", r, topic)
		}
	}
	for _, u := range topics.Idle {
		for tpc := range topics.Kind {
			if topics.Follows(tpc, u) {
				t.Fatalf("idle user %d follows topic %d", u, tpc)
			}
		}
	}
	if len(topics.Idle) == 0 {
		t.Error("no idle users to probe")
	}
}
