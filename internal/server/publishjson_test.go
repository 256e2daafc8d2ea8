package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The two body shapes the benchmark generator renders (benchmark/gen
// render): a publish on the recipient's own feed, addressed through
// item.recipient, and a shared-topic publish naming 64 followers.
const oneRecipientBody = `{"topic":{"kind":"friend-feed","entity":17},"item":{"id":278545,"kind":1,"sender":4242,"recipient":17,"meta":{"track_id":278545,"track_popularity":57.31,"artist_popularity":3.08},"tie_strength":0.6046}}`

func wideBody() string {
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = strconv.Itoa(3 + 7*i)
	}
	return `{"topic":{"kind":"artist-page","entity":1048579},"recipients":[` + strings.Join(ids, ",") +
		`],"item":{"id":49155,"kind":1,"sender":77,"recipient":0,"meta":{"track_id":49155,"track_popularity":12.50,"artist_popularity":99.99},"tie_strength":0.0001}}`
}

// decodeCases are publish bodies with whether the scanner takes each
// itself and whether it is accepted at all.
var decodeCases = []struct {
	name, body  string
	scanned, ok bool
}{
	{"one recipient", oneRecipientBody, true, true},
	{"64 recipients", wideBody(), true, true},
	{"every field", `{"topic":{"kind":"playlist","entity":-5},"recipients":[9223372036854775807,-9223372036854775808],"item":{"id":-1,"kind":4,"topic":2,"sender":3,"recipient":4,"created_at":"2026-01-02T03:04:05.123456789+01:30","meta":{"track_id":1,"album_id":2,"artist_id":3,"track_popularity":1E2,"album_popularity":-0.5e-3,"artist_popularity":0,"genre":7,"url":"https://example.com/t?a=1&b=~"},"tie_strength":1}}`, true, true},
	{"created_at in UTC", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1,"created_at":"2026-01-02T03:04:05Z"}}`, true, true},
	{"whitespace everywhere", " \t\n{ \"topic\" :\r{ \"kind\" : \"friend-feed\" , \"entity\" : 1 } , \"recipients\" : [ 1 , 2 ] , \"item\" : { \"id\" : 1 , \"meta\" : { } } }\r\n ", true, true},
	{"empty object members", `{"topic":{"kind":"friend-feed"},"item":{"recipient":3,"meta":{}}}`, true, true},
	{"minus zero", `{"topic":{"kind":"friend-feed","entity":-0},"recipients":[1],"item":{"id":-0,"tie_strength":-0,"meta":{"track_popularity":-0.0}}}`, true, true},
	{"empty recipients", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[],"item":{"id":1,"recipient":5}}`, true, true},
	{"1.0 in an int field", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1.0}}`, false, false},
	{"1e3 in an int field", `{"topic":{"kind":"friend-feed","entity":1e3},"recipients":[1],"item":{"id":1}}`, false, false},
	{"int64 overflow", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":9223372036854775808}}`, false, false},
	{"int64 underflow", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[-9223372036854775809],"item":{"id":1}}`, false, false},
	{"leading zero", `{"topic":{"kind":"friend-feed","entity":01},"recipients":[1],"item":{"id":1}}`, false, false},
	{"float out of range", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1,"tie_strength":1e400}}`, false, false},
	{"duplicate keys", `{"topic":{"kind":"friend-feed"},"topic":{"entity":2},"recipients":[1],"recipients":[3],"item":{"id":1,"id":2}}`, false, true},
	{"key differing in case", `{"Topic":{"Kind":"friend-feed","entity":1},"recipients":[1],"item":{"ID":1}}`, false, true},
	{"escape", `{"topic":{"kind":"friend\u002dfeed","entity":1},"recipients":[1],"item":{"id":1,"meta":{"url":"a\/b"}}}`, false, true},
	{"non-ASCII", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1,"meta":{"url":"caf` + "\u00e9" + `"}}}`, false, true},
	{"null recipients", `{"topic":{"kind":"friend-feed","entity":1},"recipients":null,"item":{"id":1,"recipient":2}}`, false, true},
	{"null topic", `{"topic":null,"recipients":[1],"item":{"id":1}}`, false, false},
	{"null item field", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":null,"created_at":null}}`, false, true},
	{"created_at not a string", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1,"created_at":5}}`, false, false},
	{"created_at not RFC 3339", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1],"item":{"id":1,"created_at":"yesterday"}}`, false, false},
	{"trailing comma", `{"topic":{"kind":"friend-feed","entity":1},"recipients":[1,],"item":{"id":1}}`, false, false},
	{"empty body", ``, false, false},
}

// TestDecodePublish checks which bodies the scanner takes itself, and that
// decodePublish agrees with the reflective reference on every one of them
// and on every bad request, whether the body is sent with its length,
// shorter than its Content-Length, or chunked.
func TestDecodePublish(t *testing.T) {
	for _, c := range decodeCases {
		for _, extra := range []int{0, 3, -1} {
			scanned, ok := decodeBoth(t, []byte(c.body), extra)
			if scanned != c.scanned || ok != c.ok {
				t.Errorf("%s (extra %d): scanned %v, accepted %v; want %v, %v", c.name, extra, scanned, ok, c.scanned, c.ok)
			}
		}
	}
	for _, c := range badRequests {
		if c.method != "POST" {
			continue
		}
		if scanned, ok := decodeBoth(t, []byte(c.body), 0); scanned || ok {
			t.Errorf("%s: scanned %v, accepted %v; want a 400 from the reference", c.name, scanned, ok)
		}
	}
}

// FuzzDecodePublish holds decodePublish to the reflective reference: for
// any body, sent with any stated length or none, both refuse it with the
// same 400 body or both yield the same (topic, recipients, item).
func FuzzDecodePublish(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body), int8(0))
	}
	for _, c := range badRequests {
		f.Add([]byte(c.body), int8(0))
	}
	f.Add([]byte(oneRecipientBody), int8(5)) // shorter than its Content-Length
	f.Add([]byte(oneRecipientBody), int8(-1))
	f.Fuzz(func(t *testing.T, body []byte, extra int8) {
		decodeBoth(t, body, int(extra))
	})
}

// decodeBoth decodes body with decodePublish, sent with Content-Length
// len(body)+extra (none when extra < 0), and with the reference
// decodeJSON under the same 1 MiB cap, failing t unless the two agree. It
// also runs the scanner alone over the body, which may decline but must
// never disagree. It reports whether the scanner took the body and whether
// decodePublish accepted it.
func decodeBoth(t testing.TB, body []byte, extra int) (scanned, ok bool) {
	t.Helper()
	var ref publishReq
	msg := ref.decodeJSON(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<20))

	direct := publishReq{body: body}
	if scanned = direct.scan(); scanned {
		if msg != "" {
			t.Fatalf("scanner took %q, which the reference refuses: %s", body, msg)
		}
		samePublication(t, "scan", body, &direct, &ref)
	}

	req := httptest.NewRequest("POST", "/v1/publish", bytes.NewReader(body))
	req.ContentLength = int64(len(body) + extra)
	if extra < 0 {
		req.ContentLength = -1
	}
	rec := httptest.NewRecorder()
	var got publishReq
	ok = decodePublish(rec, req, &got)
	if ok != (msg == "") {
		t.Fatalf("decodePublish accepted %v, reference refused with %q, for %q", ok, msg, body)
	}
	if !ok {
		want := httptest.NewRecorder()
		httpError(want, http.StatusBadRequest, msg)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want.Body.String() {
			t.Fatalf("400 for %q: got %d %q, want %q", body, rec.Code, rec.Body, want.Body)
		}
		return scanned, false
	}
	if ref.item.CreatedAt.IsZero() {
		if got.item.CreatedAt.IsZero() {
			t.Fatalf("decodePublish left created_at zero for %q", body)
		}
		got.item.CreatedAt = time.Time{}
	}
	samePublication(t, "decodePublish", body, &got, &ref)
	return scanned, true
}

func samePublication(t testing.TB, what string, body []byte, got, want *publishReq) {
	t.Helper()
	a, b := got.item, want.item
	sameTime := a.CreatedAt.Equal(b.CreatedAt) && a.CreatedAt.Format(time.RFC3339Nano) == b.CreatedAt.Format(time.RFC3339Nano)
	a.CreatedAt, b.CreatedAt = time.Time{}, time.Time{}
	if got.topic != want.topic || !slices.Equal(got.recipients, want.recipients) || a != b || !sameTime {
		t.Fatalf("%s of %q:\n got %+v %v %+v\nwant %+v %v %+v", what, body,
			got.topic, got.recipients, got.item, want.topic, want.recipients, want.item)
	}
}

// TestPublishResponseJSONMatches holds the publish response encoder to
// encoding/json byte for byte, as TestDeliveriesJSONMatches does for feeds.
func TestPublishResponseJSONMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	count := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Intn(100)
		case 2:
			return rng.Intn(1 << uint(rng.Intn(63)))
		default:
			return []int{math.MaxInt, math.MinInt, -1}[rng.Intn(3)]
		}
	}
	var got []byte
	for trial := 0; trial < 2000; trial++ {
		resp := PublishResponse{Accepted: count(), Rejected: count()}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got = appendPublishResponseJSON(got[:0], resp)
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("%+v:\n got %s\nwant %s", resp, got, ref.Bytes())
		}
	}
}

// reusedWriter is a ResponseWriter that keeps its header map and buffer
// across requests, so an allocation count sees only the handler's own.
type reusedWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *reusedWriter) Header() http.Header    { return w.header }
func (w *reusedWriter) WriteHeader(status int) { w.status = status }
func (w *reusedWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// TestPublishHandlerAllocs pins the standalone publish handler, decode to
// response, at zero allocations for a canonical single-recipient body. The
// server is not started, so no shard goroutine allocates while the count
// runs (process-wide malloc counts would include them); the test empties
// the recipient's ingest queue after each request instead. Before the
// scanner the same count read 18.
func TestPublishHandlerAllocs(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(oneRecipientBody)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/publish", rd)
	w := &reusedWriter{header: http.Header{}}
	q := &s.shards[s.ring.shardFor(17)].ingest
	allocs := testing.AllocsPerRun(1000, func() {
		rd.Reset(body)
		w.body = w.body[:0]
		s.handlePublish(w, req)
		q.mu.Lock()
		q.items = q.items[:0]
		q.mu.Unlock()
		q.depth.Store(0)
	})
	if w.status != http.StatusAccepted || string(w.body) != "{\"accepted\":1,\"rejected\":0}\n" {
		t.Fatalf("handlePublish answered %d %q", w.status, w.body)
	}
	t.Logf("handlePublish: %v allocs/op", allocs)
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of Puts on purpose; the count holds only without it")
	}
	if allocs != 0 {
		t.Errorf("handlePublish allocated %v objects/op, want 0", allocs)
	}
}
