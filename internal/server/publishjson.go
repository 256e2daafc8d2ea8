package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
)

// POST /v1/publish is the request every publication makes, on both fronts,
// so its body is read into a pooled buffer and decoded by a fixed-schema
// scanner, and its answer is appended into the same pooled value, instead
// of reflecting over PublishRequest and PublishResponse. The scanner takes
// only what it fully understands: the exact keys, each at most once; ASCII
// strings without escapes; JSON numbers, integer fields exactly in range;
// no null; nothing after the object but whitespace. Everything else,
// including every request that is a 400, it declines to encoding/json over
// the same bytes. That reflective decode stays the reference
// (FuzzDecodePublish holds the two together) and the one source of 400
// texts.

// maxScanBody is the largest body the scanner reads. A larger or chunked
// body streams to encoding/json, still under the 1 MiB cap.
const maxScanBody = 64 << 10

// publishReq is one publish request's scratch, pooled across requests:
// the body, the decoded publication, and the response bytes.
type publishReq struct {
	body       []byte
	topic      pubsub.TopicID
	recipients []notif.UserID
	item       notif.Item
	out        []byte
}

var publishReqs = sync.Pool{New: func() any { return new(publishReq) }}

// decodePublish reads and validates a POST /v1/publish body for either
// front into p: a 1 MiB cap, no unknown fields, exactly one JSON object, a
// known topic kind, and at least one recipient (falling back to
// item.recipient). It defaults the item's topic kind and arrival time. On
// a bad request it writes the 400 itself and returns false.
func decodePublish(w http.ResponseWriter, r *http.Request, p *publishReq) bool {
	if !p.readBody(r) || !p.scan() {
		// Whatever readBody consumed comes first, then the rest of the
		// body: encoding/json sees exactly the bytes the client sent.
		body := io.NopCloser(io.MultiReader(bytes.NewReader(p.body), r.Body))
		if msg := p.decodeJSON(http.MaxBytesReader(w, body, 1<<20)); msg != "" {
			httpError(w, http.StatusBadRequest, msg)
			return false
		}
	}
	if p.item.CreatedAt.IsZero() {
		p.item.CreatedAt = time.Now().UTC() //lint:allow wallclock ingest timestamps are real arrival times
	}
	return true
}

// readBody reads a body of stated length up to maxScanBody into p.body
// and reports whether all of it arrived. p.body holds what was read either
// way: nothing for a chunked or larger body, a prefix for a short one.
//
// richnote:allocfree
func (p *publishReq) readBody(r *http.Request) bool {
	n := r.ContentLength
	if n <= 0 || n > maxScanBody {
		p.body = p.body[:0]
		return false
	}
	if int64(cap(p.body)) < n {
		p.body = make([]byte, n)
	}
	k, err := io.ReadFull(r.Body, p.body[:n])
	p.body = p.body[:k]
	return err == nil
}

// decodeJSON is the reflective decode of a publish body and the reference
// for scan. It fills p and returns "", or returns the 400 text.
func (p *publishReq) decodeJSON(body io.Reader) string {
	var req PublishRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "malformed publish request: " + err.Error()
	}
	if _, err := dec.Token(); err != io.EOF {
		return "malformed publish request: data after the publish object"
	}
	kind, err := parseTopicKind(req.Topic.Kind)
	if err != nil {
		return err.Error()
	}
	p.recipients = req.Recipients
	if len(p.recipients) == 0 {
		if req.Item.Recipient == 0 {
			return "publish needs recipients or item.recipient"
		}
		p.recipients = []notif.UserID{req.Item.Recipient}
	}
	if req.Item.Topic == 0 {
		req.Item.Topic = kind
	}
	p.topic = pubsub.TopicID{Kind: kind, Entity: req.Topic.Entity}
	p.item = req.Item
	return ""
}

// scan decodes p.body into p as decodeJSON would, or returns false to
// leave the body to decodeJSON: on anything outside the fixed schema, and
// on every request decodeJSON refuses.
//
// richnote:allocfree
func (p *publishReq) scan() bool {
	s := scanner{b: p.body}
	p.topic = pubsub.TopicID{}
	p.recipients = p.recipients[:0]
	p.item = notif.Item{}
	if !s.next('{') {
		return false
	}
	var seen uint
	for n := 0; ; n++ {
		key, more := s.field(n)
		if !more {
			break
		}
		switch {
		case s.is(key, "topic", &seen, 0):
			s.topic(&p.topic)
		case s.is(key, "recipients", &seen, 1):
			p.recipients = s.users(p.recipients)
		case s.is(key, "item", &seen, 2):
			s.item(&p.item)
		default:
			s.bad = true
		}
	}
	s.ws()
	if s.bad || s.i != len(s.b) || p.topic.Kind == 0 {
		return false
	}
	if len(p.recipients) == 0 {
		if p.item.Recipient == 0 {
			return false
		}
		p.recipients = append(p.recipients, p.item.Recipient)
	}
	if p.item.Topic == 0 {
		p.item.Topic = p.topic.Kind
	}
	return true
}

// scanner walks one publish body. A method that meets anything outside
// the schema sets bad, after which every method does nothing, so callers
// check bad once at the end.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// ws skips JSON whitespace.
//
// richnote:allocfree
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c, after whitespace, if it comes next.
//
// richnote:allocfree
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// field moves to member n of the object being read and returns its key,
// or more=false at the closing brace or once bad.
//
// richnote:allocfree
func (s *scanner) field(n int) (key []byte, more bool) {
	if s.bad || s.next('}') {
		return nil, false
	}
	if n > 0 && !s.next(',') {
		s.bad = true
		return nil, false
	}
	key = s.str()
	if !s.next(':') {
		s.bad = true
	}
	return key, !s.bad
}

// is reports whether key is exactly name, marking bit in seen. A key seen
// twice is declined: encoding/json would keep the last scalar and merge
// objects. A key differing only in case is not name, and encoding/json
// matches it case-insensitively, so it falls through to a decline too.
//
// richnote:allocfree
func (s *scanner) is(key []byte, name string, seen *uint, bit uint) bool {
	if !equal(key, name) {
		return false
	}
	if *seen&(1<<bit) != 0 {
		s.bad = true
	}
	*seen |= 1 << bit
	return true
}

// equal reports whether b spells s.
//
// richnote:allocfree
func equal(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// str reads a string of printable ASCII without escapes and returns its
// contents, which alias the body.
//
// richnote:allocfree
func (s *scanner) str() []byte {
	if !s.next('"') {
		s.bad = true
		return nil
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// number reads a JSON number and returns its text; integer reports that
// it has neither fraction nor exponent.
//
// richnote:allocfree
func (s *scanner) number() (text []byte, integer bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if lead := s.i; s.digits() == 0 || (s.b[lead] == '0' && s.i-lead > 1) {
		s.bad = true
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		integer = false
		if s.digits() == 0 {
			s.bad = true
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		integer = false
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.bad = true
		}
	}
	return s.b[start:s.i], integer
}

// digits consumes a run of decimal digits and returns its length.
//
// richnote:allocfree
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// int64 reads an integer that fits an int64. A fraction, an exponent or
// overflow, which encoding/json refuses for an integer field, is declined.
//
// richnote:allocfree
func (s *scanner) int64() int64 {
	text, integer := s.number()
	if s.bad || !integer {
		s.bad = true
		return 0
	}
	neg := text[0] == '-'
	if neg {
		text = text[1:]
	}
	if len(text) > 19 { // 19 digits cannot overflow a uint64
		s.bad = true
		return 0
	}
	var u uint64
	for _, c := range text {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u < 1<<63:
		return int64(u)
	}
	s.bad = true
	return 0
}

// int reads an integer that fits an int.
//
// richnote:allocfree
func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

// float64 reads a number as encoding/json does for a float64 field:
// strconv.ParseFloat over its text, declining out-of-range values.
//
// richnote:allocfree
func (s *scanner) float64() float64 {
	text, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64) //lint:allow allocfree the string stays on the stack, pinned by TestPublishHandlerAllocs
	if err != nil {
		s.bad = true
	}
	return f
}

// topic reads the topic object, mapping the kind's name without making a
// string of it. An unknown kind leaves Kind zero, which scan declines.
//
// richnote:allocfree
func (s *scanner) topic(t *pubsub.TopicID) {
	if !s.next('{') {
		s.bad = true
		return
	}
	var seen uint
	for n := 0; ; n++ {
		key, more := s.field(n)
		if !more {
			return
		}
		switch {
		case s.is(key, "kind", &seen, 0):
			switch name := s.str(); {
			case equal(name, "friend-feed"):
				t.Kind = notif.TopicFriendFeed
			case equal(name, "artist-page"):
				t.Kind = notif.TopicArtistPage
			case equal(name, "playlist"):
				t.Kind = notif.TopicPlaylist
			}
		case s.is(key, "entity", &seen, 1):
			t.Entity = s.int64()
		default:
			s.bad = true
		}
	}
}

// users appends the recipients array to dst.
//
// richnote:allocfree
func (s *scanner) users(dst []notif.UserID) []notif.UserID {
	if !s.next('[') {
		s.bad = true
		return dst
	}
	if s.next(']') {
		return dst
	}
	for !s.bad {
		dst = append(dst, notif.UserID(s.int64()))
		if s.next(']') {
			return dst
		}
		if !s.next(',') {
			s.bad = true
		}
	}
	return dst
}

// item reads the item object.
//
// richnote:allocfree
func (s *scanner) item(it *notif.Item) {
	if !s.next('{') {
		s.bad = true
		return
	}
	var seen uint
	for n := 0; ; n++ {
		key, more := s.field(n)
		if !more {
			return
		}
		switch {
		case s.is(key, "id", &seen, 0):
			it.ID = notif.ItemID(s.int64())
		case s.is(key, "kind", &seen, 1):
			it.Kind = notif.ContentKind(s.int())
		case s.is(key, "topic", &seen, 2):
			it.Topic = notif.TopicKind(s.int())
		case s.is(key, "sender", &seen, 3):
			it.Sender = notif.UserID(s.int64())
		case s.is(key, "recipient", &seen, 4):
			it.Recipient = notif.UserID(s.int64())
		case s.is(key, "created_at", &seen, 5):
			// encoding/json hands time.Time its raw value, quotes and all.
			s.ws()
			start := s.i
			if s.str(); !s.bad && it.CreatedAt.UnmarshalJSON(s.b[start:s.i]) != nil {
				s.bad = true
			}
		case s.is(key, "meta", &seen, 6):
			s.meta(&it.Meta)
		case s.is(key, "tie_strength", &seen, 7):
			it.TieStrength = s.float64()
		default:
			s.bad = true
		}
	}
}

// meta reads the item's metadata object.
//
// richnote:allocfree
func (s *scanner) meta(m *notif.Metadata) {
	if !s.next('{') {
		s.bad = true
		return
	}
	var seen uint
	for n := 0; ; n++ {
		key, more := s.field(n)
		if !more {
			return
		}
		switch {
		case s.is(key, "track_id", &seen, 0):
			m.TrackID = s.int64()
		case s.is(key, "album_id", &seen, 1):
			m.AlbumID = s.int64()
		case s.is(key, "artist_id", &seen, 2):
			m.ArtistID = s.int64()
		case s.is(key, "track_popularity", &seen, 3):
			m.TrackPopularity = s.float64()
		case s.is(key, "album_popularity", &seen, 4):
			m.AlbumPopularity = s.float64()
		case s.is(key, "artist_popularity", &seen, 5):
			m.ArtistPopularity = s.float64()
		case s.is(key, "genre", &seen, 6):
			m.Genre = s.int()
		case s.is(key, "url", &seen, 7):
			// The one field that needs its own string; an absent or empty
			// url allocates nothing.
			if url := s.str(); len(url) > 0 {
				m.URL = string(url)
			}
		default:
			s.bad = true
		}
	}
}

// writeResponse answers a publish with status and exactly the bytes
// json.Encoder writes for resp, from p's buffer. Like the encoder's one
// small write, the body is short enough for net/http to state its length.
func (p *publishReq) writeResponse(w http.ResponseWriter, status int, resp PublishResponse) {
	p.out = appendPublishResponseJSON(p.out[:0], resp)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(p.out) // the connection is the only failure mode here
}

// appendPublishResponseJSON appends what json.Encoder.Encode writes for
// resp, trailing newline included (TestPublishResponseJSONMatches).
//
// richnote:allocfree
func appendPublishResponseJSON(b []byte, resp PublishResponse) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(resp.Accepted), 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, int64(resp.Rejected), 10)
	return append(b, "}\n"...)
}
