package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// blackBox gathers the per-layer numbers of a traced run that can be read
// off the running binaries from outside: /metrics, /proc and the WAL
// directory. The in-process numbers come from the layers program.
type blackBox struct {
	overheadPct float64
	layersBin   string

	stop func()
	mu   sync.Mutex
	// Maxima over the 2 Hz samples of the traced main phase.
	depthMax, roundLastMax float64

	vals map[string]metric
}

func (b *blackBox) set(name string, v float64, unit string) { b.vals[name] = metric{finite(v), unit} }

// start builds the layer program and begins sampling every process's
// counters and every shard host's /metrics twice a second.
func (b *blackBox) start(s *system) {
	b.vals = make(map[string]metric)
	// Only a traced cluster run joins a node; everywhere else these are 0.
	b.set("cluster.rebalance_ms", 0, "ms")
	b.set("cluster.handoff_refused", 0, "count")
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			for name, u := range s.usageAll() {
				s.tr.sample(name, u)
			}
			if page, err := s.scrape(); err == nil {
				b.mu.Lock()
				b.depthMax = math.Max(b.depthMax, page.max("richnote_shard_ingest_depth"))
				b.roundLastMax = math.Max(b.roundLastMax, page.max("richnote_shard_round_latency_seconds"))
				b.mu.Unlock()
			}
		}
	}()
	b.stop = func() {
		close(quit)
		<-done
	}
}

// sumCPU adds up CPU seconds of the processes whose name passes keep.
func sumCPU(u map[string]procUsage, keep func(string) bool) float64 {
	total := 0.0
	for name, v := range u {
		if keep(name) {
			total += v.cpuS
		}
	}
	return total
}

// phaseEnds is what mainPhase read at the two ends of the phase.
type phaseEnds struct {
	page   exposition // merged /metrics of the shard hosts
	router exposition
	usage  map[string]procUsage
}

// ends reads the counters at one end of a phase. The router's page costs
// it a stats call to every node, so only a traced run asks for it.
func (s *system) ends(router bool) (phaseEnds, error) {
	page, err := s.scrape()
	e := phaseEnds{page: page, router: exposition{}, usage: s.usageAll()}
	if router && s.sp.cluster {
		e.router = s.scrapeRouter()
	}
	return e, err
}

// mainDone turns the two ends of the traced main phase into per-layer
// numbers.
func (b *blackBox) mainDone(s *system, pub loopStats, e0, e1 phaseEnds, share float64) {
	b.stop()
	per := func(keep func(string) bool) float64 {
		return 1e6 * (sumCPU(e1.usage, keep) - sumCPU(e0.usage, keep)) / float64(pub.envelopes)
	}
	b.set("serve.cpu_us_per_pub", per(func(n string) bool { return n == "serve" }), "us")
	b.set("router.cpu_us_per_pub", per(func(n string) bool { return n == "router" }), "us")
	b.set("node.cpu_us_per_pub", per(func(n string) bool { return n != "serve" && n != "router" }), "us")
	b.set("loadgen.cpu_share", share, "ratio")
	b.set("loadgen.publish_p999_ms", percentile(sorted(pub.lat), 99.9), "ms")
	b.set("loadgen.write_us", s.tr.meanUs("conn.write"), "us")
	b.set("loadgen.wait_us", s.tr.meanUs("conn.wait"), "us")
	b.set("loadgen.read_us", s.tr.meanUs("conn.read"), "us")

	delta := func(p0, p1 exposition, name string) float64 { return p1.sum(name) - p0.sum(name) }
	shards := 0.0
	e1.page.each("richnote_shard_users", func(string, float64) { shards++ })
	b.set("serve.round_avg_ms", 1e3*e1.page.sum("richnote_shard_round_latency_avg_seconds")/shards, "ms")
	b.set("serve.round_last_max_ms", 1e3*b.roundLastMax, "ms")
	b.set("serve.rounds", delta(e0.page, e1.page, "richnote_shard_rounds_total"), "count")
	b.set("serve.ingest_depth_max", b.depthMax, "count")
	b.set("serve.backpressured", delta(e0.page, e1.page, "richnote_shard_ingest_backpressured_total"), "count")
	b.set("serve.dropped", delta(e0.page, e1.page, "richnote_shard_ingest_dropped_total"), "count")
	b.set("serve.queue_depth_end", e1.page.sum("richnote_shard_queue_depth"), "count")
	b.set("serve.broker_pending_end", e1.page.sum("richnote_shard_broker_pending"), "count")
	b.set("serve.shard_skew", e1.page.max("richnote_shard_users")/(e1.page.sum("richnote_shard_users")/shards), "ratio")

	var w0, w1 float64
	for name := range e1.usage {
		w0 += e0.usage[name].writeBytes
		w1 += e1.usage[name].writeBytes
	}
	b.set("wal.disk_write_bytes_per_pub", (w1-w0)/float64(pub.envelopes), "B")

	// The router's forward histogram counts from process start; the phase
	// is the difference of its two ends.
	fwd := make(exposition)
	e1.router.each("richnote_router_forward_latency_seconds_bucket", func(series string, v float64) {
		fwd[series] = v - e0.router[series]
	})
	b.set("router.forward_p50_ms", 1e3*fwd.histogramQuantile("richnote_router_forward_latency_seconds", 0.50), "ms")
	b.set("router.forward_p99_ms", 1e3*fwd.histogramQuantile("richnote_router_forward_latency_seconds", 0.99), "ms")
	b.set("transport.errors", e1.router.sum("richnote_router_transport_errors_total"), "count")
	b.set("transport.reconnects", e1.router.sum("richnote_router_reconnects_total"), "count")
}

// joinNode adds node c to the running cluster under publish load and
// times the rebalance: from c's exec until the router reports c owning
// the share the consistent-hash map gives it. Publishes the moving shards
// refuse meanwhile are counted here and nowhere else, so the steady phases
// keep failed = 0.
func (s *system) joinNode(r *result, b *blackBox) error {
	out, err := exec.Command(b.layersBin, "-predict-join", "a,b,c", "-shards", strconv.Itoa(s.sp.shards)).Output()
	if err != nil {
		return fmt.Errorf("layers -predict-join: %w", err)
	}
	want, err := strconv.Atoi(strings.TrimSpace(string(out)))
	if err != nil {
		return fmt.Errorf("layers -predict-join printed %q", out)
	}
	var load loopStats
	var stop atomic.Bool
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		load = s.publishBoth(untilSet(&stop))
	}()
	time.Sleep(500 * time.Millisecond) // load is flowing before the join starts
	err = s.startNode("c")
	var owns time.Time
	if err == nil {
		owns, err = s.h.waitHealthy(s.front, 30*time.Second, func(body []byte) bool {
			hr, ok := parseHealth(body)
			return ok && hr.owned("c") >= want && hr.owned("") == s.sp.shards && len(hr.UnassignedShards) == 0
		})
	}
	stop.Store(true)
	<-loaded
	if err != nil {
		return fmt.Errorf("node c never owned its %d shards: %w", want, err)
	}
	born := s.procs["c"].started
	s.tr.interval("join", born, owns, true)
	b.set("cluster.rebalance_ms", float64(owns.Sub(born))/float64(time.Millisecond), "ms")
	b.set("cluster.handoff_refused", float64(load.failed), "count")
	r.Detail["join.shards_moved"] = float64(want)
	r.Detail["join.publishes"] = float64(load.ops)
	return nil
}

// layerOutput is what the layers program prints.
type layerOutput struct {
	Metrics map[string]metric `json:"metrics"`
	Spans   []json.RawMessage `json:"spans"`
}

// finish runs the in-process layer section, swaps the result's metrics for
// the per-layer set and writes the trace file.
func (b *blackBox) finish(h *harness, s *system, r *result, tr *tracer) error {
	b.set("wal.dir_bytes_end", r.Detail["wal.dir_bytes_end"], "B")
	b.set("wal.snapshot_bytes_end", r.Detail["wal.snapshot_bytes_end"], "B")
	b.set("trace.overhead_pct", b.overheadPct, "%")

	scratch, err := os.MkdirTemp(h.tmpDir, "layers-")
	if err != nil {
		return err
	}
	args := []string{"-seed", strconv.FormatInt(r.Seed, 10), "-dir", scratch}
	if r.Quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(b.layersBin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	var lo layerOutput
	if err := json.Unmarshal(out, &lo); err != nil {
		return fmt.Errorf("layers output: %w", err)
	}
	// The end-to-end numbers of a traced run are kept as detail only: they
	// carry the tracing overhead and a third of the samples.
	for name, m := range r.Metrics {
		r.Detail["traced."+name] = m.Value
	}
	r.Metrics = b.vals
	for name, m := range lo.Metrics {
		r.Metrics[name] = m
	}
	return tr.write(filepath.Join(h.outDir, "trace-"+r.Workload+".json"), r.Workload, r.Seed, lo.Spans)
}
