// Package gen is the benchmark's request generator, shared by the harness,
// which sends the requests over HTTP, and the layers program, which feeds
// the same requests to each layer's public functions in process.
//
// Every request is a function of (seed, connection, index) and nothing
// else, so one seed gives one byte stream per connection whatever the
// server does. Item ids carry what the output checks need to know: who the
// item was addressed to and which stream produced it.
package gen

import (
	"math/rand"
	"sort"
	"strconv"
)

const (
	IDStride  = 1 << 14 // an id's low bits hold the recipient, or the shared-topic index
	SweepBase = int64(1) << 40
	ProbeBase = int64(1) << 41

	// FanoutEntityBase keeps shared topics apart from per-recipient feeds,
	// whose topic entity is the recipient's id.
	FanoutEntityBase = 1 << 20

	friendShare = 0.70 // the paper's feed-frequency skew; the rest splits evenly
)

// KindNames are the topic kinds as POST /v1/publish spells them.
var KindNames = [3]string{"friend-feed", "artist-page", "playlist"}

// PickKind maps a uniform draw to a topic kind, 70/15/15.
func PickKind(u float64) int {
	switch {
	case u < friendShare:
		return 0
	case u < friendShare+(1-friendShare)/2:
		return 1
	default:
		return 2
	}
}

// AppendRequest renders one HTTP/1.1 request.
func AppendRequest(dst []byte, method, path, host string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	if method == "POST" {
		dst = append(dst, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// AppendFeedGet renders GET /v1/users/{user}/deliveries into req[:0].
func AppendFeedGet(req []byte, host string, user int) []byte {
	return AppendRequest(req[:0], "GET", "/v1/users/"+strconv.Itoa(user)+"/deliveries", host, nil)
}

// Publish is one rendered POST /v1/publish: the whole request, and the
// JSON body inside it. Both are valid until the next render into the same
// Publish.
type Publish struct {
	Request, Body []byte
}

// render fills p with a publish of item id on topic (kind, entity). With
// recipients nil the item is addressed through item.recipient.
func (p *Publish) render(host string, kind int, entity int64, recipients []int, id int64, recipient int, rng *rand.Rand) {
	b := p.Body[:0]
	b = append(b, `{"topic":{"kind":"`...)
	b = append(b, KindNames[kind]...)
	b = append(b, `","entity":`...)
	b = strconv.AppendInt(b, entity, 10)
	b = append(b, '}')
	if recipients != nil {
		b = append(b, `,"recipients":[`...)
		for i, r := range recipients {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(r), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"item":{"id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"kind":1,"sender":`...)
	b = strconv.AppendInt(b, int64(rng.Intn(10000)+1), 10)
	b = append(b, `,"recipient":`...)
	b = strconv.AppendInt(b, int64(recipient), 10)
	b = append(b, `,"meta":{"track_id":`...)
	b = strconv.AppendInt(b, id%1_000_000, 10)
	b = append(b, `,"track_popularity":`...)
	b = strconv.AppendFloat(b, 1+rng.Float64()*99, 'f', 2, 64)
	b = append(b, `,"artist_popularity":`...)
	b = strconv.AppendFloat(b, 1+rng.Float64()*99, 'f', 2, 64)
	b = append(b, `},"tie_strength":`...)
	b = strconv.AppendFloat(b, rng.Float64(), 'f', 4, 64)
	b = append(b, `}}`...)
	p.Body = b
	p.Request = AppendRequest(p.Request[:0], "POST", "/v1/publish", host, b)
}

// Personal renders a publish of item id on user's own feed of the given
// kind: the sweep's registration request and the visibility probe.
func (p *Publish) Personal(host string, kind int, id int64, user int, rng *rand.Rand) {
	p.render(host, kind, int64(user), nil, id, user, rng)
}

// SweepID is the id of the sweep's publish for (user, kind).
func SweepID(user, kind int) int64 { return SweepBase + int64(user)*4 + int64(kind) }

// ProbeID is the id of the k-th visibility probe, sent to user.
func ProbeID(k, user int) int64 { return ProbeBase + int64(k)*IDStride + int64(user) }

// PublishStream is one connection's endless stream of single-recipient
// publishes on per-recipient feeds (topic entity = recipient), kinds
// 70/15/15. Per-recipient topics bound the subscription set at 3 x users,
// so a run is stationary.
type PublishStream struct {
	Publish
	Rng         *rand.Rand
	N           int64 // requests rendered so far
	conn, conns int
	users       int
	host        string
}

func NewPublishStream(seed int64, conn, conns, users int, host string) *PublishStream {
	return &PublishStream{
		Rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(conn))),
		conn: conn, conns: conns, users: users, host: host,
	}
}

// Next renders the stream's next publish and returns the request.
func (s *PublishStream) Next() []byte {
	kind := PickKind(s.Rng.Float64())
	rcpt := s.Rng.Intn(s.users) + 1
	id := (s.N*int64(s.conns)+int64(s.conn))*IDStride + int64(rcpt)
	s.N++
	s.render(s.host, kind, int64(rcpt), nil, id, rcpt, s.Rng)
	return s.Request
}

// Sent reports whether id is one this stream has rendered so far.
func (s *PublishStream) Sent(id int64) bool {
	seq := id / IDStride
	return seq%int64(s.conns) == int64(s.conn) && seq/int64(s.conns) < s.N
}

// FanoutTopics are the shared topics of the fanout workload: a fixed
// follower set per topic, drawn once from the seed.
type FanoutTopics struct {
	Kind      []int
	Followers [][]int
	Idle      []int // users in no follower set; visibility probes go to them
	follows   []map[int]bool
}

func NewFanoutTopics(seed int64, users, topics, followers int) *FanoutTopics {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7))
	ft := &FanoutTopics{}
	busy := make(map[int]bool)
	for t := 0; t < topics; t++ {
		ft.Kind = append(ft.Kind, PickKind(rng.Float64()))
		set := make(map[int]bool, followers)
		var list []int
		for len(list) < followers && len(list) < users {
			u := rng.Intn(users) + 1
			if !set[u] {
				set[u] = true
				busy[u] = true
				list = append(list, u)
			}
		}
		sort.Ints(list)
		ft.Followers = append(ft.Followers, list)
		ft.follows = append(ft.follows, set)
	}
	for u := 1; u <= users; u++ {
		if !busy[u] {
			ft.Idle = append(ft.Idle, u)
		}
	}
	return ft
}

// Follows reports whether user follows shared topic t.
func (ft *FanoutTopics) Follows(t, user int) bool {
	return t >= 0 && t < len(ft.follows) && ft.follows[t][user]
}

// FanoutStream is the sequential publisher of the fanout workload: each
// request publishes one item on a shared topic to all of its followers.
type FanoutStream struct {
	Publish
	N      int64 // requests rendered by Next so far
	rng    *rand.Rand
	topics *FanoutTopics
	host   string
}

func NewFanoutStream(seed int64, topics *FanoutTopics, host string) *FanoutStream {
	return &FanoutStream{rng: rand.New(rand.NewSource(seed*1_000_003 + 11)), topics: topics, host: host}
}

// Topic renders a publish of item id on shared topic t to its followers.
func (s *FanoutStream) Topic(t int, id int64) []byte {
	s.render(s.host, s.topics.Kind[t], int64(FanoutEntityBase+t), s.topics.Followers[t], id, 0, s.rng)
	return s.Request
}

// Next renders the stream's next publish, on a topic drawn uniformly, and
// returns the request and how many recipients it names.
func (s *FanoutStream) Next() (req []byte, recipients int) {
	t := s.rng.Intn(len(s.topics.Kind))
	id := s.N*IDStride + int64(t)
	s.N++
	return s.Topic(t, id), len(s.topics.Followers[t])
}
