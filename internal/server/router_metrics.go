package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/metrics"
)

// forwardLatencyBounds are the router's forward-latency histogram buckets,
// spanning loopback microseconds to cross-zone worst cases.
var forwardLatencyBounds = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// forwardLatency is a fixed-bucket histogram every publish records into
// without a lock or an allocation: one counter per bound (a sample lands
// in the first bucket whose bound it does not exceed; the exposition
// accumulates), plus count and sum. observe bumps count before the
// bucket and write reads the buckets before count, so a concurrent scrape
// never shows a bucket above +Inf.
type forwardLatency struct {
	buckets  [len(forwardLatencyBounds)]atomic.Uint64 // each element is its own atomic
	count    atomic.Uint64                            // richnote:atomic
	sumNanos atomic.Uint64                            // richnote:atomic
}

func (h *forwardLatency) observe(d time.Duration) {
	h.count.Add(1)
	h.sumNanos.Add(uint64(d))
	secs := d.Seconds()
	for i, bound := range forwardLatencyBounds {
		if secs <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
}

// write emits the histogram's exposition lines.
func (h *forwardLatency) write(printf func(format string, args ...any)) {
	printf("# HELP richnote_router_forward_latency_seconds Round-trip latency of publish forwards to shard-owner nodes.\n# TYPE richnote_router_forward_latency_seconds histogram\n")
	cum := uint64(0)
	for i, bound := range forwardLatencyBounds {
		cum += h.buckets[i].Load()
		printf("richnote_router_forward_latency_seconds_bucket{le=%q} %d\n", strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	count := h.count.Load()
	printf("richnote_router_forward_latency_seconds_bucket{le=\"+Inf\"} %d\n", count)
	printf("richnote_router_forward_latency_seconds_sum %g\n", time.Duration(h.sumNanos.Load()).Seconds())
	printf("richnote_router_forward_latency_seconds_count %d\n", count)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	v := r.view.Load()
	if v == nil {
		httpError(w, http.StatusServiceUnavailable, "router has no shard map yet")
		return
	}
	// Aggregate node stats over the transport, merging reports and delay
	// histograms exactly as a standalone server merges its shards.
	var total metrics.Report
	var delay []metrics.Bucket
	for _, n := range v.m.Nodes {
		p := v.peers[n.Name]
		if p == nil || !p.up.Load() {
			continue
		}
		st, err := p.stats()
		if err != nil {
			continue // a dead node's stats are simply absent this scrape
		}
		total.Merge(st.Report)
		if merged, err := metrics.MergeBuckets(delay, st.DelayBuckets); err == nil {
			delay = merged
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := metrics.WriteExposition(w, total, delay); err != nil {
		return
	}
	r.writeRouterGauges(w, v)
}

// writeRouterGauges appends the router-tier series: per-node forwarding
// counters, transport health, the map version, coordinator progress and
// the forward-latency histogram.
func (r *Router) writeRouterGauges(w http.ResponseWriter, v *view) {
	printf := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	names := v.names()
	printf("# HELP richnote_router_forwarded_publishes_total Publish requests forwarded to each node.\n# TYPE richnote_router_forwarded_publishes_total counter\n")
	for _, name := range names {
		printf("richnote_router_forwarded_publishes_total{node=%q} %d\n", name, v.peers[name].forwarded.Load())
	}
	printf("# HELP richnote_router_transport_errors_total Transport-level failures (dial, write, read, corruption) per node client.\n# TYPE richnote_router_transport_errors_total counter\n")
	for _, name := range names {
		printf("richnote_router_transport_errors_total{node=%q} %d\n", name, v.peers[name].client.Load().Errors())
	}
	printf("# HELP richnote_router_reconnects_total Re-dials after an established connection was lost, per node client.\n# TYPE richnote_router_reconnects_total counter\n")
	for _, name := range names {
		printf("richnote_router_reconnects_total{node=%q} %d\n", name, v.peers[name].client.Load().Reconnects())
	}
	printf("# HELP richnote_router_node_up Last probe verdict per node (1 up, 0 down).\n# TYPE richnote_router_node_up gauge\n")
	for _, name := range names {
		up := 0
		if v.peers[name].up.Load() {
			up = 1
		}
		printf("richnote_router_node_up{node=%q} %d\n", name, up)
	}
	printf("# HELP richnote_cluster_map_version Version of the shard assignment map this router serves from.\n# TYPE richnote_cluster_map_version gauge\n")
	printf("richnote_cluster_map_version %d\n", v.m.Version)
	printf("# HELP richnote_cluster_unassigned_shards Shards the map records as owned by nobody, awaiting adopt retry.\n# TYPE richnote_cluster_unassigned_shards gauge\n")
	printf("richnote_cluster_unassigned_shards %d\n", len(v.m.Unassigned()))
	printf("# HELP richnote_router_handoffs_total Shard reassignments commanded by this coordinator (crash takeovers + planned moves).\n# TYPE richnote_router_handoffs_total counter\n")
	printf("richnote_router_handoffs_total %d\n", r.handoffs.Load())
	r.fwdLatency.write(printf)
}
