package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/benchmark/gen"
)

// scale sizes a run. Everything that is fixed work (probes, ticks, crash
// work, restarts) is fixed here; only the main phase follows --seconds.
type scale struct {
	users  int
	setups int           // set-up repetitions; setup_s is their median
	warmUp time.Duration // closed-loop traffic before timing, not part of setup_s

	probes       int           // visibility probes against wall-clock rounds
	probeEvery   time.Duration // their spacing; see visibility
	probesManual int           // visibility probes against harness-driven rounds
	ticks        int           // forced rounds in the tick segment
	crashWork    int           // envelopes between the snapshot and kill -9
	recoveries   int           // timed restarts from copies of the crashed WAL dir
	restarts     int           // timed restarts where there is no WAL to recover
	sampleFeeds  int

	topics, followers, perCycle int     // fanout: shared topics, their follower sets, publishes per cycle
	cyclesPerSecond             float64 // fanout main phase is fixed work: cycles = this x --seconds
}

var fullScale = scale{
	users: 10000, setups: 3, warmUp: 500 * time.Millisecond,
	probes: 20, probeEvery: 161803 * time.Microsecond, probesManual: 100,
	ticks: 600, crashWork: 5000, recoveries: 3, restarts: 9, sampleFeeds: 200,
	topics: 150, followers: 64, perCycle: 32, cyclesPerSecond: 40,
}

// traced is the scale of a traced run: one set-up, one restart, and a third
// of the other fixed work, as its main phase is a third as long.
func (sc scale) traced() scale {
	sc.setups, sc.recoveries, sc.restarts = 1, 1, 1
	sc.probes, sc.probesManual, sc.ticks = (sc.probes+2)/3, (sc.probesManual+2)/3, sc.ticks/3
	return sc
}

// quickScale is the smoke test's size: it exercises every phase, and its
// numbers mean nothing.
var quickScale = scale{
	users: 1000, setups: 1, warmUp: 200 * time.Millisecond,
	probes: 4, probeEvery: 161803 * time.Microsecond, probesManual: 8,
	ticks: 20, crashWork: 500, recoveries: 1, restarts: 2, sampleFeeds: 20,
	topics: 30, followers: 16, perCycle: 8, cyclesPerSecond: 17,
}

// loopStats is what one stretch of requests on one connection produced.
type loopStats struct {
	lat        []float64 // ms; requests that got their success status only
	at         []float64 // when each of them completed, in seconds since epoch
	ops        int
	failed     int   // any other status, or a transport error; never retried
	envelopes  int64 // recipient-publications the server accepted
	start, end time.Time
}

func (a *loopStats) add(b loopStats) {
	a.lat = append(a.lat, b.lat...)
	a.at = append(a.at, b.at...)
	a.ops += b.ops
	a.failed += b.failed
	a.envelopes += b.envelopes
	if a.start.IsZero() || b.start.Before(a.start) {
		a.start = b.start
	}
	if b.end.After(a.end) {
		a.end = b.end
	}
}

func (a loopStats) wall() float64 { return a.end.Sub(a.start).Seconds() }

// epoch is the origin of loopStats.at.
var epoch = time.Now()

// The main phase is cut into windows. Each yields one throughput and one
// set of percentiles, and the run reports the first quartile of the
// latencies and the third quartile of the throughputs (calm). Interference
// from outside the benchmark is one-sided, it only ever slows a window
// down, so the better quartile of the windows says what the code does on a
// shared machine where the median of the windows says what the neighbours
// did: over ten runs its spread was the smaller on every metric and
// workload tried (publish_p50_ms on ingest: 11 % against 20 %). A slowdown
// in the code moves every window and so moves the quartile as it moves the
// median. A window is at least half a second and at least windowSamples
// requests, so that its p99 has fifty samples beyond it; a phase with
// fewer requests is one window.
const (
	windowSeconds = 0.5
	windowSamples = 5000
)

// calm is the p-th percentile of the per-window values: 25 for latencies,
// 75 for throughputs.
func calm(perWindow []float64, p float64) float64 { return percentile(sorted(perWindow), p) }

// windows groups the latencies by the window they completed in and returns
// them with the window length in seconds.
func (a loopStats) windows() ([][]float64, float64) {
	first, last := a.at[0], a.at[0]
	for _, t := range a.at {
		first, last = min(first, t), max(last, t)
	}
	n := max(1, min(int((last-first)/windowSeconds), len(a.at)/windowSamples))
	length := (last - first) / float64(n)
	out := make([][]float64, n)
	for i, t := range a.at {
		w := min(int((t-first)/length), n-1)
		out[w] = append(out[w], a.lat[i])
	}
	return out, length
}

// exchange sends one request and books it: latency if the reply carried
// the wanted status, a failure otherwise.
func (s *system) exchange(st *loopStats, c *conn, name string, req []byte, want int) (body []byte, ok bool) {
	status, body, t, err := c.roundTrip(req)
	ok = err == nil && status == want
	st.ops++
	if ok {
		st.lat = append(st.lat, t.ms())
		st.at = append(st.at, t.end.Sub(epoch).Seconds())
	} else {
		st.failed++
		if err != nil {
			time.Sleep(10 * time.Millisecond) // a dead server must not turn the loop into a busy dial
		}
	}
	s.tr.request(name, t, ok)
	return body, ok
}

// publishLoop is one closed-loop client: send, wait for the 202, send the
// next. A refused publish is a failure and is not sent again.
func (s *system) publishLoop(c int, done func(sent int) bool) loopStats {
	st := loopStats{start: time.Now()}
	for !done(st.ops) {
		body, ok := s.exchange(&st, s.conns[c], "publish", s.streams[c].Next(), http.StatusAccepted)
		if ok {
			st.envelopes++
		} else {
			st.envelopes += int64(acceptedIn(body))
		}
	}
	st.end = time.Now()
	return st
}

// publishBoth runs the closed loop on both connections until done.
func (s *system) publishBoth(done func(sent int) bool) loopStats {
	var wg sync.WaitGroup
	parts := make([]loopStats, loadConns)
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = s.publishLoop(c, done)
		}(c)
	}
	wg.Wait()
	var total loopStats
	for _, p := range parts {
		total.add(p)
	}
	s.acked.Add(total.envelopes)
	return total
}

func until(deadline time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(deadline) }
}

func untilSet(stop *atomic.Bool) func(int) bool {
	return func(int) bool { return stop.Load() }
}

func (s *system) tick(st *loopStats, c *conn) bool {
	_, ok := s.exchange(st, c, "tick", s.tickReq, http.StatusOK)
	return ok
}

// cycles is the fanout workload's sequential driver on connection 0: each
// cycle publishes perCycle items, each to one shared topic's followers,
// then forces one round. One publisher and harness-driven rounds make the
// server's state a function of the seed alone.
func (s *system) cycles(done func(cycle int) bool) (pub, ticks loopStats) {
	pub.start = time.Now()
	ticks.start = pub.start
	for n := 0; !done(n); n++ {
		for i := 0; i < s.sc.perCycle; i++ {
			req, recipients := s.fan.Next()
			body, ok := s.exchange(&pub, s.conns[0], "publish", req, http.StatusAccepted)
			if ok {
				pub.envelopes += int64(recipients)
			} else {
				pub.envelopes += int64(acceptedIn(body))
			}
		}
		s.tick(&ticks, s.conns[0])
	}
	pub.end = time.Now()
	ticks.end = pub.end
	s.acked.Add(pub.envelopes)
	return pub, ticks
}

// readFeeds reads random users' feeds back to back on connection 1.
func (s *system) readFeeds(stop *atomic.Bool) loopStats {
	st := loopStats{start: time.Now()}
	var req []byte
	for !stop.Load() {
		req = gen.AppendFeedGet(req, s.front, s.rng.Intn(s.sc.users)+1)
		s.exchange(&st, s.conns[1], "feed_read", req, http.StatusOK)
	}
	st.end = time.Now()
	return st
}

// background keeps the workload's own traffic going on connection 0 while
// connection 1 measures something else; the returned func stops it.
func (s *system) background() (stop func()) {
	var flag atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		if s.sp.manual {
			s.cycles(untilSet(&flag))
			return
		}
		st := s.publishLoop(0, untilSet(&flag))
		s.acked.Add(st.envelopes)
	}()
	return func() {
		flag.Store(true)
		<-done
	}
}

// visibility measures publish -> visible in the recipient's feed on
// connection 1 while connection 0 carries the workload's traffic: publish
// a tagged item on the user's own feed, then read the feed every 2 ms
// until it shows. probes is the visible latency per probe, reads the feed
// round trips.
//
// What a probe waits for is mostly the rest of the current round interval,
// uniform over 0..100 ms, so a mean over randomly timed probes is noisy.
// Probes against wall-clock rounds are therefore sent on a fixed schedule
// whose period is a golden-ratio multiple of the round interval: their
// phases cover the interval evenly whatever the first one was, and the mean
// converges like 1/n instead of 1/sqrt(n).
func (s *system) visibility(n int, every time.Duration, users []int) (probes, reads loopStats) {
	stop := s.background()
	defer stop()
	c := s.conns[1]
	probes.start = time.Now()
	reads.start = probes.start
	var pub gen.Publish
	var get []byte
	for k := 0; k < n; k++ {
		if wait := time.Until(probes.start.Add(time.Duration(k) * every)); wait > 0 {
			time.Sleep(wait)
		}
		user := s.rng.Intn(s.sc.users) + 1
		if users != nil {
			user = users[s.rng.Intn(len(users))]
		}
		id := gen.ProbeID(s.probesSent, user)
		s.probesSent++
		pub.Personal(s.front, 0, id, user, s.rng)
		needle := append(strconv.AppendInt([]byte(`"item_id":`), id, 10), ',')
		get = gen.AppendFeedGet(get, s.front, user)

		sent := time.Now()
		var st loopStats
		if _, ok := s.exchange(&st, c, "probe.publish", pub.Request, http.StatusAccepted); !ok {
			probes.ops++
			probes.failed++
			continue
		}
		s.acked.Add(1)
		visible := false
		for time.Since(sent) < 5*time.Second {
			body, ok := s.exchange(&reads, c, "feed_read", get, http.StatusOK)
			if ok && bytes.Contains(body, needle) {
				visible = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		seen := time.Now()
		probes.ops++
		if visible {
			probes.lat = append(probes.lat, float64(seen.Sub(sent))/float64(time.Millisecond))
		} else {
			probes.failed++
		}
		s.tr.interval("probe", sent, seen, visible)
	}
	probes.end = time.Now()
	reads.end = probes.end
	return probes, reads
}

// forcedTicks times POST /v1/tick on a system whose rounds are on the wall
// clock, the way the fanout cycles time it: a batch of perCycle publishes,
// then the tick, all on one connection and nothing beside it, so every
// tick finds about the same work.
func (s *system) forcedTicks(n int) loopStats {
	ticks := loopStats{start: time.Now()}
	for i := 0; i < n; i++ {
		batch := s.publishLoop(1, func(sent int) bool { return sent >= s.sc.perCycle })
		s.acked.Add(batch.envelopes)
		ticks.ops += batch.ops
		ticks.failed += batch.failed
		s.tick(&ticks, s.conns[1])
	}
	ticks.end = time.Now()
	return ticks
}

// sweep touches every (user, topic kind) pair once, so auto-registration
// and subscription are done before anything is timed. The fanout system
// also gets one publish per shared topic, which subscribes its followers,
// and a few rounds to deliver what the sweep published.
func (s *system) sweep() error {
	var wg sync.WaitGroup
	errs := make([]error, loadConns)
	accepted := make([]int64, loadConns)
	kinds := len(gen.KindNames)
	if s.sp.manual {
		kinds = 1 // shared topics carry the three kinds; own feeds exist for the probes
	}
	for c := range s.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var own gen.Publish
			send := func(req []byte, recipients int) bool {
				status, body, _, err := s.conns[c].roundTrip(req)
				if err != nil || status != http.StatusAccepted {
					errs[c] = fmt.Errorf("sweep publish: status %d: %v: %.200s", status, err, body)
					return false
				}
				accepted[c] += int64(recipients)
				return true
			}
			if s.sp.manual && c == 0 {
				for t := range s.topics.Kind {
					if !send(s.fan.Topic(t, gen.SweepBase+int64(gen.FanoutEntityBase+t)), len(s.topics.Followers[t])) {
						return
					}
				}
			}
			for user := 1 + c; user <= s.sc.users; user += loadConns {
				for kind := 0; kind < kinds; kind++ {
					own.Personal(s.front, kind, gen.SweepID(user, kind), user, s.streams[c].Rng)
					if !send(own.Request, 1) {
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return err
		}
		s.acked.Add(accepted[c])
	}
	if s.sp.manual {
		var st loopStats
		for i := 0; i < 8; i++ {
			if !s.tick(&st, s.conns[0]) {
				return fmt.Errorf("sweep tick refused")
			}
		}
	}
	_, err := s.drained()
	return err
}

// published reports whether id is an item the generator sent and user is
// one of the recipients it was addressed to.
func (s *system) published(id int64, user int) bool {
	switch {
	case id >= gen.ProbeBase:
		x := id - gen.ProbeBase
		return x%gen.IDStride == int64(user) && x/gen.IDStride < int64(s.probesSent)
	case id >= gen.SweepBase+gen.FanoutEntityBase:
		return s.topics != nil && s.topics.Follows(int(id-gen.SweepBase-gen.FanoutEntityBase), user)
	case id >= gen.SweepBase:
		return (id-gen.SweepBase)/4 == int64(user)
	case s.fan != nil:
		return id/gen.IDStride < s.fan.N && s.topics.Follows(int(id%gen.IDStride), user)
	default:
		return id%gen.IDStride == int64(user) && s.streams[(id/gen.IDStride)%loadConns].Sent(id)
	}
}

// checkFeeds reads sampled users' feeds and verifies that each holds only
// items the generator addressed to that user, at levels 1..6.
func (s *system) checkFeeds() []string {
	var bad []string
	var req []byte
	nonEmpty := 0
	for i := 0; i < s.sc.sampleFeeds; i++ {
		user := s.rng.Intn(s.sc.users) + 1
		req = gen.AppendFeedGet(req, s.front, user)
		status, body, _, err := s.conns[1].roundTrip(req)
		if err != nil || status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("feed of user %d: status %d: %v", user, status, err))
			continue
		}
		var feed struct {
			User       int `json:"user"`
			Deliveries []struct {
				ItemID    int64 `json:"item_id"`
				Recipient int   `json:"recipient"`
				Level     int   `json:"level"`
			} `json:"deliveries"`
		}
		if err := json.Unmarshal(body, &feed); err != nil || feed.User != user {
			bad = append(bad, fmt.Sprintf("feed of user %d: unreadable: %v", user, err))
			continue
		}
		if len(feed.Deliveries) > 0 {
			nonEmpty++
		}
		for _, d := range feed.Deliveries {
			if d.Recipient != user || d.Level < 1 || d.Level > 6 || !s.published(d.ItemID, user) {
				bad = append(bad, fmt.Sprintf("feed of user %d holds item %d for %d at level %d, which was not sent to them",
					user, d.ItemID, d.Recipient, d.Level))
				break
			}
		}
	}
	if nonEmpty == 0 {
		bad = append(bad, "every sampled feed is empty")
	}
	if len(bad) > 5 {
		bad = append(bad[:5], fmt.Sprintf("... and %d more feed errors", len(bad)-5))
	}
	return bad
}

// drained waits until no shard has publishes waiting in its ingest buffer:
// every acked publish has been appended to the log (where there is one)
// and handed to the broker.
func (s *system) drained() (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		page, err := s.scrape()
		if err != nil {
			return time.Time{}, err
		}
		if page.sum("richnote_shard_ingest_depth") == 0 {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("ingest buffers still hold %.0f publishes after a minute", page.sum("richnote_shard_ingest_depth"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settle waits until everything acked has reached a scheduler
// (arrived_total == acked). Artist pages and playlists drain every second
// and fourth round, so this takes a few rounds; a manual-mode system gets
// them forced.
func (s *system) settle() (exposition, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.sp.manual {
			var st loopStats
			s.tick(&st, s.conns[0])
		}
		page, err := s.scrape()
		if err != nil {
			return nil, err
		}
		if int64(page.sum("richnote_notifications_arrived_total")) == s.acked.Load() && page.sum("richnote_shard_ingest_depth") == 0 {
			return page, nil
		}
		if time.Now().After(deadline) {
			return page, fmt.Errorf("arrived_total %.0f never reached the %d envelopes acked (ingest depth %.0f, broker pending %.0f)",
				page.sum("richnote_notifications_arrived_total"), s.acked.Load(),
				page.sum("richnote_shard_ingest_depth"), page.sum("richnote_shard_broker_pending"))
		}
		time.Sleep(roundEvery / 2)
	}
}
