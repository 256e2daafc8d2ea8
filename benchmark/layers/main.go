// Command layers is the in-process section of a traced benchmark run: it
// times calls into each layer's public functions, with inputs from the
// benchmark's own generator, and prints one JSON object of per-layer
// metrics and the spans around the timed calls.
//
// It is a program of its own, not part of the harness, because it is the
// only part of the benchmark that links against internal/: when a later
// change moves that API, this stops building and the traced run says so,
// while the end-to-end runs, which touch only binaries and HTTP, go on.
//
//	layers -seed 1 -dir <scratch> [-quick]
//	layers -predict-join a,b,c -shards 8   (prints the shards the last name gains)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/richnote/richnote/benchmark/gen"
	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/mckp"
	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/server"
	"github.com/richnote/richnote/internal/survey"
	"github.com/richnote/richnote/internal/trace"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/utility"
	"github.com/richnote/richnote/internal/wal"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Calls   int     `json:"calls"`
}

// bench collects the section's output. A span covers one batch of calls:
// the calls are nanoseconds to microseconds long, and a span each would
// cost more than the call.
type bench struct {
	t0      time.Time
	seed    int64
	dir     string
	users   int // registered users per server; 2,500 per shard at full scale
	batch   int // calls per batch for the microsecond-scale layers
	metrics map[string]metric
	spans   []span
}

func main() {
	var (
		seed    = flag.Int64("seed", 1, "seed of the generated requests")
		dir     = flag.String("dir", "", "scratch directory for WAL files")
		quick   = flag.Bool("quick", false, "smoke-test scale")
		predict = flag.String("predict-join", "", "node names; print how many shards the last gains by joining the others")
		shards  = flag.Int("shards", 8, "shard count for -predict-join")
	)
	flag.Parse()
	if *predict != "" {
		n, err := predictJoin(strings.Split(*predict, ","), *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
		fmt.Println(n)
		return
	}
	b := &bench{t0: time.Now(), seed: *seed, dir: *dir, users: 10000, batch: 2000, metrics: make(map[string]metric)}
	if *quick {
		b.users, b.batch = 1000, 200
	}
	for _, section := range []func() error{
		b.httpAndServer, b.broker, b.enrichAndSchedule, b.walLayer, b.handoff, b.transportLayer, b.router,
	} {
		if err := section(); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(map[string]any{"metrics": b.metrics, "spans": b.spans})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// predictJoin says how many shards the consistent-hash map hands the last
// node when it joins a cluster of the others.
func predictJoin(names []string, shards int) (int, error) {
	var nodes []cluster.Node
	for _, n := range names {
		nodes = append(nodes, cluster.Node{Name: n})
	}
	before, err := cluster.Compute(1, nodes[:len(nodes)-1], shards)
	if err != nil {
		return 0, err
	}
	after, err := before.Rebalance(2, nodes)
	if err != nil {
		return 0, err
	}
	return len(after.OwnedBy(names[len(names)-1])), nil
}

// timeIt runs batches of n calls and reports the median batch: time per
// call in unit, and allocations per call when allocs is set.
func (b *bench) timeIt(name string, unit time.Duration, n int, allocs bool, call func(i int)) {
	const batches = 5
	var per, mallocs []float64
	var ms runtime.MemStats
	for k := 0; k < batches; k++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		for i := 0; i < n; i++ {
			call(k*n + i)
		}
		end := time.Now()
		runtime.ReadMemStats(&ms)
		per = append(per, float64(end.Sub(start))/float64(unit)/float64(n))
		mallocs = append(mallocs, float64(ms.Mallocs-m0)/float64(n))
		b.span(name, start, end, n)
	}
	b.set(name, median(per), unitName(unit))
	if allocs {
		b.set(name+".allocs", median(mallocs), "count")
	}
}

func (b *bench) span(name string, start, end time.Time, calls int) {
	us := func(t time.Time) float64 { return float64(t.Sub(b.t0)) / float64(time.Microsecond) }
	b.spans = append(b.spans, span{Name: name, StartUs: us(start), EndUs: us(end), Calls: calls})
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func unitName(d time.Duration) string {
	switch d {
	case time.Nanosecond:
		return "ns"
	case time.Microsecond:
		return "us"
	default:
		return "ms"
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func since(start time.Time, unit time.Duration) float64 {
	return float64(time.Since(start)) / float64(unit)
}

func cellMatrix() *network.Matrix {
	m := network.AlwaysCellMatrix()
	return &m
}

// newServer starts a manual-round server shaped like the workloads': cell
// network, seed 42, an ingest buffer that never refuses.
func (b *bench) newServer(cfg server.Config) (*server.Server, error) {
	cfg.Seed = 42
	cfg.IngestBuffer = 1 << 16
	cfg.Default.NetworkMatrix = cellMatrix()
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return s, s.Start()
}

// publishBodies renders n single-recipient publish bodies from the
// generator's connection-0 stream.
func (b *bench) publishBodies(n int) [][]byte {
	st := gen.NewPublishStream(b.seed, 0, 2, b.users, "layers")
	bodies := make([][]byte, n)
	for i := range bodies {
		st.Next()
		bodies[i] = append([]byte(nil), st.Body...)
	}
	return bodies
}

// decode turns a generated body into what Server.Publish takes.
func decode(body []byte) (pubsub.TopicID, notif.UserID, notif.Item, error) {
	var req server.PublishRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return pubsub.TopicID{}, 0, notif.Item{}, err
	}
	kind := notif.TopicFriendFeed
	switch req.Topic.Kind {
	case "artist-page":
		kind = notif.TopicArtistPage
	case "playlist":
		kind = notif.TopicPlaylist
	}
	req.Item.Topic = kind
	return pubsub.TopicID{Kind: kind, Entity: req.Topic.Entity}, req.Item.Recipient, req.Item, nil
}

func serve(h http.Handler, method, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code
}

// httpAndServer times the publish path from the HTTP handler down to the
// ingest channel, the feed read, and a whole round per envelope.
func (b *bench) httpAndServer() error {
	s, err := b.newServer(server.Config{Shards: 4})
	if err != nil {
		return err
	}
	defer s.CrashStop()
	h := s.Handler()
	ctx := context.Background()
	total := 5 * b.batch
	bodies := b.publishBodies(total)

	bad := 0
	b.timeIt("http.publish1_us", time.Microsecond, b.batch, true, func(i int) {
		if serve(h, "POST", "/v1/publish", bodies[i]) != http.StatusAccepted {
			bad++
		}
	})
	if err := s.Tick(ctx); err != nil {
		return err
	}

	topics := gen.NewFanoutTopics(b.seed, b.users, 150, 64)
	fan := gen.NewFanoutStream(b.seed, topics, "layers")
	wide := make([][]byte, total/8)
	for i := range wide {
		fan.Next()
		wide[i] = append([]byte(nil), fan.Body...)
	}
	b.timeIt("http.publish64_us", time.Microsecond, b.batch/8, true, func(i int) {
		if serve(h, "POST", "/v1/publish", wide[i]) != http.StatusAccepted {
			bad++
		}
		if i%32 == 31 {
			_ = s.Tick(ctx) // as the fanout workload does; keeps the buffers a cycle deep
		}
	})
	if bad > 0 {
		return fmt.Errorf("%d in-process publishes were refused", bad)
	}

	rng := rand.New(rand.NewSource(b.seed))
	b.timeIt("http.deliveries_us", time.Microsecond, b.batch, true, func(int) {
		serve(h, "GET", fmt.Sprintf("/v1/users/%d/deliveries", rng.Intn(b.users)+1), nil)
	})

	type pub struct {
		topic pubsub.TopicID
		user  notif.UserID
		item  notif.Item
	}
	pubs := make([]pub, total)
	for i, body := range bodies {
		if pubs[i].topic, pubs[i].user, pubs[i].item, err = decode(body); err != nil {
			return err
		}
	}
	b.timeIt("server.publish_us", time.Microsecond, b.batch, true, func(i int) {
		if err := s.Publish(pubs[i].topic, pubs[i].user, pubs[i].item); err != nil {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("%d Server.Publish calls were refused", bad)
	}
	if err := s.Tick(ctx); err != nil {
		return err
	}

	// One round over 2,048 staged envelopes: accept, broker, enrich, plan,
	// deliver, feed. Friend-feed only, so every envelope is flushed by the
	// round that follows it.
	const staged = 2048
	var perEnv []float64
	for k := 0; k < 5; k++ {
		for i := 0; i < staged; i++ {
			p := pubs[(k*staged+i)%total]
			p.topic.Kind, p.item.Topic = notif.TopicFriendFeed, notif.TopicFriendFeed
			if err := s.Publish(p.topic, p.user, p.item); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := s.Tick(ctx); err != nil {
			return err
		}
		perEnv = append(perEnv, since(start, time.Microsecond)/staged)
		b.span("server.tick_us_per_env", start, time.Now(), staged)
	}
	b.set("server.tick_us_per_env", median(perEnv), "us")
	return nil
}

// broker times Broker.Publish and Broker.EndRoundIndex at 1 and 64
// subscribers per topic. The server publishes one envelope per recipient,
// so at 64 subscribers each item costs 64 Publish calls of 64 deliveries.
func (b *bench) broker() error {
	for _, subs := range []int{1, 64} {
		br := pubsub.NewBroker()
		const topics = 64
		got := 0
		for t := 0; t < topics; t++ {
			for u := 0; u < subs; u++ {
				topic := pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: int64(t)}
				if err := br.Subscribe(notif.UserID(t*subs+u+1), topic, pubsub.ModeRound, func(items []notif.Item) { got += len(items) }); err != nil {
					return err
				}
			}
		}
		round, n := 0, b.batch
		var flush []float64
		b.timeIt(fmt.Sprintf("pubsub.publish_ns.sub%d", subs), time.Nanosecond, n, subs == 64, func(i int) {
			br.Publish(pubsub.TopicID{Kind: notif.TopicFriendFeed, Entity: int64(i % topics)}, notif.Item{ID: notif.ItemID(i + 1)})
			if i%n == n-1 {
				// One flush per batch, outside the per-call figure's interest
				// but inside its time: n publishes dwarf it at sub1 and it is
				// timed on its own below.
				start := time.Now()
				br.EndRoundIndex(round)
				flush = append(flush, since(start, time.Nanosecond)/float64(n*subs))
				b.span(fmt.Sprintf("pubsub.endround_ns_per_item.sub%d", subs), start, time.Now(), n*subs)
				round++
			}
		})
		if got == 0 {
			return fmt.Errorf("broker delivered nothing at %d subscribers", subs)
		}
		b.set(fmt.Sprintf("pubsub.endround_ns_per_item.sub%d", subs), median(flush), "ns")
	}
	return nil
}

// enrichAndSchedule times enrichment, a device round, the plan inside it
// and the MCKP solve inside that.
func (b *bench) enrichAndSchedule() error {
	generator, err := media.NewAudioGenerator(media.AudioConfig{Utility: survey.Equation8})
	if err != nil {
		return err
	}
	enricher, err := utility.NewEnricher(utility.ConstantScorer{Value: 0.5}, generator)
	if err != nil {
		return err
	}
	bodies := b.publishBodies(64)
	notes := make([]trace.Notification, len(bodies))
	for i, body := range bodies {
		if _, _, notes[i].Item, err = decode(body); err != nil {
			return err
		}
	}
	var rich notif.RichItem
	b.timeIt("utility.enrich_us", time.Microsecond, b.batch, true, func(i int) {
		rich, err = enricher.EnrichScored(&notes[i%len(notes)], 0.5)
	})
	if err != nil {
		return err
	}

	for _, q := range []int{1, 8} {
		dev, err := newDevice()
		if err != nil {
			return err
		}
		round, delivered := 0, 0
		batch := make([]sched.Queued, q)
		var runErr error
		b.timeIt(fmt.Sprintf("sched.run_round_us.q%d", q), time.Microsecond, b.batch/4, q == 8, func(i int) {
			for j := range batch {
				r := rich
				r.Item.ID = notif.ItemID(i*q + j + 1)
				r.ContentUtility = 0.2 + 0.09*float64(j)
				r.ArrivedRound = round
				batch[j] = sched.Queued{Rich: r}
			}
			if err := dev.Enqueue(batch); err != nil {
				runErr = err
			}
			res, err := dev.RunRound(round)
			if err != nil {
				runErr = err
			}
			delivered += res.Delivered
			round++
		})
		if runErr != nil {
			return runErr
		}
		// A device that only queues would make this the cost of an idle round.
		if delivered < round*q/2 {
			return fmt.Errorf("device delivered %d of %d items enqueued at %d per round", delivered, round*q, q)
		}
	}

	queue := make([]sched.Queued, 8)
	groups := make([]mckp.Group, 8)
	for j := range queue {
		r := rich
		r.ContentUtility = 0.2 + 0.09*float64(j)
		queue[j] = sched.Queued{Rich: r}
		for _, p := range r.Presentations {
			groups[j].Choices = append(groups[j].Choices, mckp.Choice{Value: r.ContentUtility * p.Utility, Weight: float64(p.Size)})
		}
	}
	ctl, err := lyapunov.New(lyapunov.Config{V: core.DefaultV, Kappa: core.DefaultKappaJ})
	if err != nil {
		return err
	}
	transfer := energy.DefaultTransferModel()
	planner := &sched.RichNote{}
	ctx := &sched.PlanContext{
		BudgetBytes: 500_000, Controller: ctl, Scratch: &sched.PlanScratch{},
		EnergyJ: func(size int64) float64 {
			j, _ := transfer.TransferJ(size, network.StateCell) // cell is a state it knows
			return j
		},
	}
	b.timeIt("sched.plan_us.q8", time.Microsecond, b.batch, false, func(int) { planner.Plan(queue, ctx) })
	var solver mckp.Solver
	b.timeIt("mckp.solve_us.n8", time.Microsecond, b.batch, false, func(int) { solver.Solve(groups, 500_000, mckp.Options{}) })
	return nil
}

// newDevice builds one user's device stack the way a shard registers it.
func newDevice() (*sched.Device, error) {
	net, err := network.NewModelSeeded(network.AlwaysCellMatrix(), network.StateCell, 42)
	if err != nil {
		return nil, err
	}
	battery, err := energy.NewBattery(energy.BatteryConfig{}, rand.New(rand.NewSource(43)))
	if err != nil {
		return nil, err
	}
	ctl, err := lyapunov.New(lyapunov.Config{V: core.DefaultV, Kappa: core.DefaultKappaJ})
	if err != nil {
		return nil, err
	}
	return sched.NewDevice(sched.DeviceConfig{
		User: 1, Strategy: &sched.RichNote{},
		WeeklyBudgetBytes: 100 << 20, RoundsPerWeek: 168,
		Epoch: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), RoundLen: time.Hour,
		Network: net, Capacity: network.DefaultCapacity(),
		Battery: battery, Transfer: energy.DefaultTransferModel(),
		Controller: ctl, Collector: metrics.NewCollector(),
	})
}

// walLayer times the log: a buffered append, an append made durable under
// each fsync policy, and replay.
func (b *bench) walLayer() error {
	payload := bytes.Repeat([]byte{0xA5}, 160) // an encoded publish record is about this long
	open := func(name string, policy wal.SyncPolicy) (*wal.Writer, string, error) {
		path := filepath.Join(b.dir, name)
		w, err := wal.OpenWriter(path, 0, 0, policy)
		return w, path, err
	}
	w, path, err := open("append.wal", wal.SyncNever)
	if err != nil {
		return err
	}
	var werr error
	note := func(err error) {
		if err != nil {
			werr = err
		}
	}
	b.timeIt("wal.append_ns", time.Nanosecond, 20*b.batch, true, func(int) {
		_, err := w.Append(1, payload)
		note(err)
	})
	note(w.Close())
	if werr != nil {
		return werr
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	start := time.Now()
	records := 0
	if _, err := wal.ReplayFile(path, func(uint64, byte, []byte) error { records++; return nil }); err != nil {
		return err
	}
	b.span("wal.replay_mb_s", start, time.Now(), records)
	b.set("wal.replay_mb_s", float64(info.Size())/1e6/time.Since(start).Seconds(), "MB/s")

	for _, p := range []struct {
		name   string
		policy wal.SyncPolicy
		n      int
	}{{"always", wal.SyncAlways, b.batch / 10}, {"round", wal.SyncRound, b.batch / 10}, {"never", wal.SyncNever, b.batch}} {
		w, _, err := open(p.name+".wal", p.policy)
		if err != nil {
			return err
		}
		b.timeIt("wal.commit_us."+p.name, time.Microsecond, p.n, false, func(int) {
			_, err := w.Append(1, payload)
			note(err)
			note(w.Commit())
		})
		note(w.Close())
	}
	return werr
}

// handoff times what a shard move and a crash recovery are made of, at
// b.users/4 users per shard with deliveries in their feeds.
func (b *bench) handoff() error {
	ctx := context.Background()
	src := filepath.Join(b.dir, "src")
	cfg := server.Config{Shards: 4, WALDir: src, WALFsync: wal.SyncRound}
	s, err := b.newServer(cfg)
	if err != nil {
		return err
	}
	bodies := b.publishBodies(3 * b.users)
	load := func(s *server.Server) error {
		for i, body := range bodies {
			topic, user, item, err := decode(body)
			if err != nil {
				return err
			}
			if err := s.Publish(topic, user, item); err != nil {
				return err
			}
			if i%2048 == 2047 {
				if err := s.Tick(ctx); err != nil {
					return err
				}
			}
		}
		return s.Tick(ctx)
	}
	if err := load(s); err != nil {
		return err
	}

	start := time.Now()
	state, err := s.ShardState(ctx, 0)
	if err != nil {
		return err
	}
	b.span("server.shard_state_ms", start, time.Now(), 1)
	b.set("server.shard_state_ms", since(start, time.Millisecond), "ms")

	// Crash with a log to replay, then recover: what `durable` restarts do.
	s.CrashStop()
	start = time.Now()
	if s, err = b.newServer(cfg); err != nil {
		return err
	}
	b.span("server.recover_ms", start, time.Now(), 1)
	b.set("server.recover_ms", since(start, time.Millisecond), "ms")
	defer func() { s.CrashStop() }()

	start = time.Now()
	snap, frozen, err := s.FreezeShard(0)
	if err != nil {
		return err
	}
	b.span("server.freeze_ms", start, time.Now(), 1)
	b.set("server.freeze_ms", since(start, time.Millisecond), "ms")
	if !bytes.Equal(state, frozen) {
		return fmt.Errorf("shard 0 state changed across crash recovery: %d bytes before, %d after", len(state), len(frozen))
	}

	dst, err := b.newServer(server.Config{Shards: 4, WALDir: filepath.Join(b.dir, "dst"), WALFsync: wal.SyncRound, OwnedShards: []int{}})
	if err != nil {
		return err
	}
	defer dst.CrashStop()
	start = time.Now()
	if err := dst.AdoptShardBytes(0, snap); err != nil {
		return err
	}
	b.span("server.adopt_ms", start, time.Now(), 1)
	b.set("server.adopt_ms", since(start, time.Millisecond), "ms")
	if !bytes.Equal(dst.AdoptedState(0), frozen) {
		return fmt.Errorf("adopted shard 0 differs from the frozen one")
	}
	return nil
}

// transportLayer times one framed round trip over loopback.
func (b *bench) transportLayer() error {
	echo := transport.HandlerFunc(func(typ byte, payload []byte) (byte, []byte, error) { return typ, payload[:1], nil })
	ts, err := transport.Listen("127.0.0.1:0", echo)
	if err != nil {
		return err
	}
	defer ts.Close()
	c := transport.NewClient(ts.Addr(), transport.ClientConfig{})
	defer c.Close()
	var cerr error
	for _, size := range []struct {
		name  string
		bytes int
		n     int
	}{{"100B", 100, b.batch}, {"1MB", 1 << 20, b.batch / 50}} {
		payload := make([]byte, size.bytes)
		b.timeIt("transport.rtt_us."+size.name, time.Microsecond, size.n, false, func(int) {
			if _, _, err := c.Call(1, payload); err != nil {
				cerr = err
			}
		})
	}
	return cerr
}

// router times a publish through Router.Handler with two in-process nodes
// on loopback, and a planned shard move between them.
func (b *bench) router() error {
	const shards = 8
	dir := filepath.Join(b.dir, "cluster")
	var peers []cluster.Node
	for _, name := range []string{"a", "b"} {
		s, err := b.newServer(server.Config{Shards: shards, WALDir: dir, WALFsync: wal.SyncRound, OwnedShards: []int{}})
		if err != nil {
			return err
		}
		defer s.CrashStop()
		s.SetRole("node")
		n := server.NewNode(name, s)
		if err := n.Serve("127.0.0.1:0"); err != nil {
			return err
		}
		defer n.Close()
		peers = append(peers, cluster.Node{Name: name, Addr: n.Addr()})
	}
	r, err := server.NewRouter(server.RouterConfig{Shards: shards, Peers: peers, ProbeInterval: time.Hour})
	if err != nil {
		return err
	}
	if err := r.Start(); err != nil {
		return err
	}
	defer r.Stop()
	h := r.Handler()
	bodies := b.publishBodies(5 * b.batch)
	bad := 0
	b.timeIt("router.publish_us", time.Microsecond, b.batch, true, func(i int) {
		if serve(h, "POST", "/v1/publish", bodies[i]) != http.StatusAccepted {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("%d publishes through the in-process router were refused", bad)
	}
	if serve(h, "POST", "/v1/tick", nil) != http.StatusOK {
		return fmt.Errorf("in-process router tick refused")
	}
	m := r.Map()
	from := m.Owner(0).Name
	to := "a"
	if from == "a" {
		to = "b"
	}
	start := time.Now()
	if err := r.MoveShard(0, to); err != nil {
		return err
	}
	b.span("router.move_shard_ms", start, time.Now(), 1)
	b.set("router.move_shard_ms", since(start, time.Millisecond), "ms")
	return nil
}
