package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: what the last stdout line carries,
// plus the detail written to <out>/<workload>.json.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Quick       bool               `json:"quick,omitempty"`
	Correct     bool               `json:"correct"`
	Invalid     []string           `json:"invalid,omitempty"` // why the run does not count; empty on a good run
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Metrics     map[string]metric  `json:"metrics"`
	Detail      map[string]float64 `json:"detail"`             // sample counts and phase numbers behind the metrics
	Counters    map[string]float64 `json:"counters,omitempty"` // fanout: repeat exactly for one seed and length
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{finite(v), unit} }

// finite maps NaN and the infinities to 0: encoding/json refuses them, and
// a ratio over a phase that measured nothing is best shown as nothing.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (r *result) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// count books a stretch of measured operations into attempted/failed.
func (r *result) count(phase string, st loopStats) {
	r.Attempted += st.ops
	r.Failed += st.failed
	r.Detail[phase+".ops"] = float64(st.ops)
	r.Detail[phase+".failed"] = float64(st.failed)
}

// tail reports percentile p of lat under name, and marks the run invalid
// when fewer than minBeyond samples lie beyond it.
func (r *result) tail(name string, lat []float64, p float64, quick bool) {
	s := sorted(lat)
	r.set(name, percentile(s, p), "ms")
	r.Detail[name+".samples"] = float64(len(s))
	if !quick && p > 50 && beyond(len(s), p) < minBeyond {
		r.invalid("%s: only %d of %d samples lie beyond p%g", name, beyond(len(s), p), len(s), p)
	}
}

// generatorBoundShare is the share of all CPU the run used above which the
// generator, not the server, sets the numbers.
const generatorBoundShare = 0.6

// runWorkload measures one workload once. Every workload goes through the
// same phases, so each end-to-end metric has a value on each:
//
//	set-up (several times; the last instance is kept) and warm-up
//	main phase        publish_*, deliver_eps, rss_mb; on fanout also tick_* and feed_read_p50_ms
//	visibility        visible_mean_ms; feed_read_p50_ms where rounds are on the wall clock
//	forced rounds     tick_* where rounds are on the wall clock: a batch of publishes, then the tick
//	settle and output checks
//	crash and restart recovery_ms
func runWorkload(h *harness, sp spec, sc scale, seed int64, seconds float64, tr *tracer, quick bool) (*result, error) {
	r := &result{
		Workload: sp.name, Seed: seed, Seconds: seconds, Trace: tr != nil, Quick: quick,
		Metrics: make(map[string]metric), Detail: make(map[string]float64),
	}
	r.Detail["harness.build_s"] = h.buildS
	r.Detail["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	// Where the run's own wall time went, phase by phase.
	lap := time.Now()
	phase := func(name string) {
		r.Detail["phase_s."+name] = time.Since(lap).Seconds()
		lap = time.Now()
	}

	// Set-up, several times over: one set-up is one sample, and a later
	// change is held to setup_s like to any other metric.
	var s *system
	var setups []float64
	if tr != nil {
		sc, seconds = sc.traced(), seconds/3
	}
	for i := 0; i < sc.setups; i++ {
		if s != nil {
			s.crash()
		}
		var err error
		if s, err = newSystem(h, sp, sc, seed, tr); err != nil {
			return nil, err
		}
		if err = s.launch(); err != nil {
			return nil, err
		}
		if err = s.sweep(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(s.firstExec).Seconds())
		tr.interval("setup", s.firstExec, time.Now(), true)
	}
	r.set("setup_s", median(setups), "s")
	phase("setup")
	if sp.manual {
		s.cycles(func(n int) bool { return n >= 10 })
	} else {
		s.publishBoth(until(time.Now().Add(sc.warmUp)))
	}

	phase("warmup")
	var lay blackBox
	if tr != nil {
		// The traced run does its main phase twice on one system:
		// untraced, then traced. The difference is what recording spans
		// costs.
		tr.on.Store(false)
		plain, err := s.mainPhase(r, seconds, nil)
		if err != nil {
			return nil, err
		}
		tr.on.Store(true)
		if lay.layersBin, err = h.buildLayers(); err != nil {
			return nil, err
		}
		lay.start(s)
		traced, err := s.mainPhase(r, seconds, &lay)
		if err != nil {
			return nil, err
		}
		lay.overheadPct = 100 * (plain - traced) / plain
	} else if _, err := s.mainPhase(r, seconds, nil); err != nil {
		return nil, err
	}

	phase("main")

	// Visibility beside the workload's traffic, then forced rounds.
	probeUsers, probeCount, probeEvery := []int(nil), sc.probes, sc.probeEvery
	if sp.manual {
		// Followers of a shared topic run out of budget, and an item that
		// waits for budget is not what this measures: probe the users no
		// topic reaches. Rounds come every cycle, so no schedule is needed.
		probeUsers, probeCount, probeEvery = s.topics.Idle, sc.probesManual, 0
	}
	probes, reads := s.visibility(probeCount, probeEvery, probeUsers)
	r.count("visibility", probes)
	r.set("visible_mean_ms", trimmedMean(probes.lat), "ms")
	phase("visibility")
	if !sp.manual {
		r.count("visibility.reads", reads)
		r.tail("feed_read_p50_ms", reads.lat, 50, quick)
		ticks := s.forcedTicks(sc.ticks)
		r.count("ticks", ticks)
		r.tail("tick_p50_ms", ticks.lat, 50, quick)
		r.tail("tick_p95_ms", ticks.lat, 95, quick || tr != nil)
		phase("ticks")
	}

	// Output checks on the quiet system.
	page, err := s.settle()
	if err != nil {
		r.invalid("settle: %v", err)
	} else if !sp.manual {
		// With harness-driven rounds the identity was checked at the end of
		// the main phase, where the counters are also recorded.
		s.checkConservation(r, page)
	}
	for _, bad := range s.checkFeeds() {
		r.invalid("%s", bad)
	}

	phase("checks")
	if sp.cluster && tr != nil {
		if err := s.joinNode(r, &lay); err != nil {
			return nil, err
		}
	}

	if err := s.recovery(r); err != nil {
		return nil, err
	}
	s.crash()
	phase("recovery")

	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
	if r.Failed > 0 {
		r.invalid("%d of %d operations failed; a steady phase must have none", r.Failed, r.Attempted)
	}
	if tr != nil {
		if err := lay.finish(h, s, r, tr); err != nil {
			return nil, err
		}
	}
	r.Correct = len(r.Invalid) == 0
	return r, nil
}

// mainPhase runs the workload's traffic for seconds (fanout: the fixed
// work that stands for it) and reports the metrics it yields. It returns
// publish_eps.
func (s *system) mainPhase(r *result, seconds float64, lay *blackBox) (float64, error) {
	// Start from a quiet system: nothing acked still on its way to a
	// scheduler, nothing dirty still on its way to the disk.
	if !s.sp.manual {
		if _, err := s.settle(); err != nil {
			return 0, err
		}
	}
	syscall.Sync()
	e0, err := s.ends(lay != nil)
	if err != nil {
		return 0, err
	}
	self0 := selfCPU()
	var pub, ticks, reads loopStats
	tail := 0.0 // how long the ingest buffers took to empty after the last ack
	phaseStart := time.Now()
	if s.sp.manual {
		cycles := int(s.sc.cyclesPerSecond*seconds + 0.5)
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			reads = s.readFeeds(&stop)
		}()
		pub, ticks = s.cycles(func(n int) bool { return n >= cycles })
		stop.Store(true)
		<-done
		r.Detail["main.cycles"] = float64(cycles)
	} else {
		pub = s.publishBoth(until(phaseStart.Add(time.Duration(seconds * float64(time.Second)))))
		empty, err := s.drained()
		if err != nil {
			return 0, err
		}
		tail = empty.Sub(pub.end).Seconds()
		// Deliveries are counted to the moment the last acked publish has
		// reached its scheduler: up to four rounds on, for a playlist.
		if _, err := s.settle(); err != nil {
			return 0, err
		}
	}
	delivering := time.Since(phaseStart).Seconds()
	s.tr.interval("main", phaseStart, time.Now(), pub.failed == 0)
	self1 := selfCPU()
	e1, err := s.ends(lay != nil)
	if err != nil {
		return 0, err
	}
	before, after := e0.page, e1.page
	all := func(string) bool { return true }
	kidsCPU := sumCPU(e1.usage, all) - sumCPU(e0.usage, all)
	quick := r.Quick

	// Throughput and publish latency are taken per window, and the run
	// reports the quartile of the windows on the good side (calm). The
	// backlog the phase left in the ingest buffers counts against the
	// throughput: work is done when it has left the buffer, not when acked.
	if len(pub.lat) == 0 {
		return 0, fmt.Errorf("no publish succeeded in the main phase")
	}
	var rate, p50, p99 []float64
	perOp := float64(pub.envelopes) / float64(len(pub.lat))
	wins, length := pub.windows()
	for _, w := range wins {
		sw := sorted(w)
		rate = append(rate, float64(len(w))*perOp/length)
		p50 = append(p50, percentile(sw, 50))
		p99 = append(p99, percentile(sw, 99))
		if !quick && !r.Trace && beyond(len(w), 99) < minBeyond {
			r.invalid("publish_p99_ms: a window holds %d samples, too few for a p99", len(w))
			break
		}
	}
	acking := pub.wall()
	wall := acking + tail
	r.count("main.publish", pub)
	r.Detail["main.wall_s"] = wall
	r.Detail["main.drain_tail_s"] = tail
	r.Detail["main.envelopes"] = float64(pub.envelopes)
	r.Detail["main.windows"] = float64(len(rate))
	r.set("publish_eps", calm(rate, 75)*acking/wall, "1/s")
	r.set("publish_p50_ms", calm(p50, 25), "ms")
	r.set("publish_p99_ms", calm(p99, 25), "ms")
	delivered := after.sum("richnote_notifications_delivered_total") - before.sum("richnote_notifications_delivered_total")
	r.set("deliver_eps", delivered/delivering, "1/s")
	hwm := 0.0
	for _, u := range e1.usage {
		hwm += u.hwmKB
	}
	r.set("rss_mb", hwm/1024, "MB")
	if s.sp.manual {
		r.count("main.ticks", ticks)
		r.count("main.reads", reads)
		r.tail("tick_p50_ms", ticks.lat, 50, quick)
		r.tail("tick_p95_ms", ticks.lat, 95, quick || r.Trace)
		r.tail("feed_read_p50_ms", reads.lat, 50, quick)
		// One sequential publisher and harness-driven rounds: these repeat
		// exactly for one seed and one length, and -compare holds them to it.
		r.Counters = map[string]float64{
			"arrived":         after.sum("richnote_notifications_arrived_total"),
			"delivered":       after.sum("richnote_notifications_delivered_total"),
			"delivered_bytes": after.sum("richnote_delivered_bytes_total"),
		}
		after.each("richnote_deliveries_by_level_total", func(series string, v float64) { r.Counters[series] = v })
		s.checkConservation(r, after)
	}

	// The generator shares two cores with the servers. Past this share the
	// numbers say more about the generator than about them.
	share := (self1 - self0) / ((self1 - self0) + kidsCPU)
	r.Detail["loadgen.cpu_share"] = share
	if share > generatorBoundShare {
		r.invalid("generator_bound: the generator used %.0f%% of the CPU the run used", 100*share)
	}
	if lay != nil {
		lay.mainDone(s, pub, e0, e1, share)
	}
	return r.Metrics["publish_eps"].Value, nil
}

// checkConservation holds the delivery counters to the identity that every
// item that reached a scheduler is delivered, queued or dropped, and every
// acked envelope reached a scheduler or still waits in the broker.
func (s *system) checkConservation(r *result, page exposition) {
	arrived := page.sum("richnote_notifications_arrived_total")
	delivered := page.sum("richnote_notifications_delivered_total")
	queued := page.sum("richnote_shard_queue_depth")
	pending := page.sum("richnote_shard_broker_pending")
	dropped := page.sum("richnote_dropped_total")
	refused := page.sum("richnote_shard_ingest_dropped_total")
	if arrived != delivered+queued+dropped {
		r.invalid("conservation: arrived %.0f != delivered %.0f + queue depth %.0f + dropped %.0f", arrived, delivered, queued, dropped)
	}
	// With shared topics the broker holds a copy per follower, so its count
	// is not a count of envelopes; settle checks arrived == acked instead.
	if acked := float64(s.acked.Load()); !s.sp.manual && acked != arrived+pending+refused+page.sum("richnote_shard_ingest_depth") {
		r.invalid("conservation: acked %.0f != arrived %.0f + broker pending %.0f + dropped at ingest %.0f", acked, arrived, pending, refused)
	}
}

// recovery is the crash segment. With a WAL it is fixed work, so that the
// replay is the same length every time: force rounds until shard 0 writes
// a snapshot, publish exactly crashWork envelopes, wait until all of them
// are logged, kill -9 every process, then time restarts from copies of the
// directory as the kill left it (a restart compacts, so the second restart
// from one directory would have nothing to replay). Without a WAL there is
// nothing to recover and the restart is timed bare.
func (s *system) recovery(r *result) error {
	var acked float64
	if s.walDir != "" {
		snap := filepath.Join(s.walDir, "shard-0.snap")
		was, _ := os.Stat(snap) // nil while the shard has not yet written one
		var st loopStats
		for i := 0; ; i++ {
			now, err := os.Stat(snap)
			if err == nil && (was == nil || !os.SameFile(was, now)) {
				was = now
				break
			}
			if i > 200 {
				return fmt.Errorf("crash segment: shard 0 wrote no snapshot in %d forced rounds", i)
			}
			s.tick(&st, s.conns[0])
		}
		var left atomic.Int64
		left.Store(int64(s.sc.crashWork))
		work := s.publishBoth(func(int) bool { return left.Add(-1) < 0 })
		r.count("crash.publish", work)
		page, err := s.settle()
		if err != nil {
			r.invalid("crash segment: %v", err)
		}
		if now, err := os.Stat(snap); err != nil || !os.SameFile(was, now) {
			r.invalid("crash segment crossed a second snapshot; the replay is not the fixed work")
		}
		acked = float64(s.acked.Load())
		r.Detail["crash.acked"] = acked
		r.Detail["crash.arrived_before_kill"] = page.sum("richnote_notifications_arrived_total")
		r.Detail["wal.dir_bytes_end"] = dirBytes(s.walDir, "")
		r.Detail["wal.snapshot_bytes_end"] = dirBytes(s.walDir, ".snap")
	}
	s.crash()

	n, crashed := s.sc.restarts, s.walDir
	if crashed != "" {
		n = s.sc.recoveries
	}
	var times []float64
	for i := 0; i < n; i++ {
		if crashed != "" {
			s.walDir = filepath.Join(s.h.tmpDir, fmt.Sprintf("%s-recover-%d", s.sp.name, i))
			if err := copyDir(crashed, s.walDir); err != nil {
				return err
			}
		}
		if err := s.launch(); err != nil {
			return fmt.Errorf("restart after kill -9: %w", err)
		}
		healthy := time.Now()
		times = append(times, float64(healthy.Sub(s.firstExec))/float64(time.Millisecond))
		s.tr.interval("recovery", s.firstExec, healthy, true)
		r.Attempted++
		if crashed != "" {
			// Zero acked publishes lost, and rounds resume.
			page, err := s.scrape()
			if err != nil {
				return err
			}
			if got := page.sum("richnote_notifications_arrived_total"); got != acked {
				r.invalid("recovery %d: arrived_total %.0f after restart, %.0f publishes were acked before the kill", i, got, acked)
			}
			if err := s.roundsResume(); err != nil {
				r.invalid("recovery %d: %v", i, err)
			}
		}
		s.crash()
	}
	r.set("recovery_ms", median(times), "ms")
	r.Detail["recovery.samples"] = float64(len(times))
	return nil
}

func (s *system) roundsResume() error {
	_, body, err := s.h.get("http://" + s.front + "/healthz")
	if err != nil {
		return err
	}
	first, _ := parseHealth(body)
	_, err = s.h.waitHealthy(s.front, 3*time.Second, func(body []byte) bool {
		hr, ok := parseHealth(body)
		return ok && hr.totalRounds() > first.totalRounds()
	})
	if err != nil {
		return fmt.Errorf("rounds did not resume: %w", err)
	}
	return nil
}

// metricNames lists a result's metrics in a stable order for printing.
func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
