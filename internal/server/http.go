package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/notif"
)

// The HTTP/JSON API of richnote-serve:
//
//	POST /v1/publish                  ingest a publication (429 on backpressure)
//	GET  /v1/users/{id}/deliveries    recent deliveries for one user
//	POST /v1/tick                     force one synchronized round
//	GET  /healthz                     liveness + per-shard round progress
//	GET  /metrics                     Prometheus text exposition

// PublishRequest is the POST /v1/publish body. The topic kind accepts the
// canonical names ("friend-feed", "artist-page", "playlist"). Recipients
// defaults to the item's recipient field; each recipient is routed to its
// own shard and accepted or rejected independently.
type PublishRequest struct {
	Topic struct {
		Kind   string `json:"kind"`
		Entity int64  `json:"entity"`
	} `json:"topic"`
	Recipients []notif.UserID `json:"recipients,omitempty"`
	Item       notif.Item     `json:"item"`
}

// PublishResponse reports per-recipient routing outcomes.
type PublishResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// DeliveriesResponse is the GET /v1/users/{id}/deliveries body.
type DeliveriesResponse struct {
	User       notif.UserID     `json:"user"`
	Deliveries []notif.Delivery `json:"deliveries"`
}

// HealthResponse is the GET /healthz body. Role, MapVersion and
// OwnedShards report the cluster view: standalone processes own every
// shard at map version 0, cluster nodes own the subset the coordinator
// assigned them, and the router aggregates these per node (see
// RouterHealthResponse).
type HealthResponse struct {
	Status      string   `json:"status"`
	Role        string   `json:"role"`
	MapVersion  uint64   `json:"map_version"`
	Shards      int      `json:"shards"`
	OwnedShards []int    `json:"owned_shards"`
	Rounds      []int    `json:"rounds"`
	Errors      []string `json:"errors,omitempty"`
}

func parseTopicKind(s string) (notif.TopicKind, error) {
	switch s {
	case "friend-feed":
		return notif.TopicFriendFeed, nil
	case "artist-page":
		return notif.TopicArtistPage, nil
	case "playlist":
		return notif.TopicPlaylist, nil
	default:
		return 0, fmt.Errorf("unknown topic kind %q", s)
	}
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/publish", s.handlePublish)
	mux.HandleFunc("GET /v1/users/{id}/deliveries", s.handleDeliveries)
	mux.HandleFunc("POST /v1/tick", s.handleTick)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// pathUser parses the {id} path segment of a deliveries request, writing
// the 400 itself and returning ok=false when it is not a positive integer.
func pathUser(w http.ResponseWriter, r *http.Request) (notif.UserID, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id <= 0 {
		httpError(w, http.StatusBadRequest, "bad user id")
		return 0, false
	}
	return notif.UserID(id), true
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	p := publishReqs.Get().(*publishReq)
	defer publishReqs.Put(p)
	if !decodePublish(w, r, p) {
		return
	}
	var resp PublishResponse
	for _, rcpt := range p.recipients {
		if err := s.Publish(p.topic, rcpt, p.item); err != nil {
			resp.Rejected++
		} else {
			resp.Accepted++
		}
	}
	if resp.Rejected > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.RetryAfter())))
		p.writeResponse(w, http.StatusTooManyRequests, resp)
		return
	}
	p.writeResponse(w, http.StatusAccepted, resp)
}

// retryAfterSeconds renders a duration as the integral seconds HTTP
// Retry-After requires, rounding sub-second waits up to 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleDeliveries(w http.ResponseWriter, r *http.Request) {
	user, ok := pathUser(w, r)
	if !ok {
		return
	}
	sh := s.shards[s.ring.shardFor(user)]
	writeFeed(w, func(b []byte) []byte { return sh.appendDeliveriesJSON(b, user) })
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	if err := s.Tick(r.Context()); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	// Indexed by shard id (zero for unowned shards in cluster node mode),
	// so the standalone response shape is unchanged.
	rounds := make([]int, len(s.shards))
	for _, snap := range s.Snapshots() {
		rounds[snap.Shard] = snap.Round
	}
	writeJSON(w, http.StatusOK, map[string]any{"rounds": rounds})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Shards:      len(s.shards),
		Role:        s.Role(),
		MapVersion:  s.MapVersion(),
		OwnedShards: s.OwnedShardIDs(),
	}
	for _, snap := range s.Snapshots() {
		resp.Rounds = append(resp.Rounds, snap.Round)
		if snap.Err != "" {
			resp.Errors = append(resp.Errors, fmt.Sprintf("shard %d: %s", snap.Shard, snap.Err))
		}
	}
	status := http.StatusOK
	if s.state.Load() == stateStarted {
		resp.Status = "ok"
	} else {
		resp.Status = "stopped"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := s.Snapshots()
	var total metrics.Report
	var buckets []metrics.Bucket
	for _, snap := range snaps {
		total.Merge(snap.Report)
		merged, err := metrics.MergeBuckets(buckets, snap.DelayBuckets)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		buckets = merged
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := metrics.WriteExposition(w, total, buckets); err != nil {
		return // client went away mid-write; nothing to salvage
	}
	writeShardGauges(w, snaps, s)
}

// writeShardGauges appends the per-shard serving gauges to the exposition:
// queue depth, round count and latency, Lyapunov queue totals, ingest
// depth and backpressure rejections.
func writeShardGauges(w http.ResponseWriter, snaps []ShardSnapshot, s *Server) {
	printf := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	gaugeHeader := func(name, help string) {
		printf("# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	gaugeHeader("richnote_shard_queue_depth", "Scheduling-queue entries (device queues + staged inboxes) per shard.")
	for _, sn := range snaps {
		printf("richnote_shard_queue_depth{shard=\"%d\"} %d\n", sn.Shard, sn.QueueDepth)
	}
	gaugeHeader("richnote_shard_broker_pending", "Publications held for their feed's cadence round per shard.")
	for _, sn := range snaps {
		printf("richnote_shard_broker_pending{shard=\"%d\"} %d\n", sn.Shard, sn.BrokerPending)
	}
	gaugeHeader("richnote_shard_users", "Registered users per shard.")
	for _, sn := range snaps {
		printf("richnote_shard_users{shard=\"%d\"} %d\n", sn.Shard, sn.Users)
	}
	gaugeHeader("richnote_shard_round_latency_seconds", "Wall-clock latency of the shard's most recent round.")
	for _, sn := range snaps {
		printf("richnote_shard_round_latency_seconds{shard=\"%d\"} %g\n", sn.Shard, sn.LastRound.Seconds())
	}
	gaugeHeader("richnote_shard_round_latency_avg_seconds", "Mean wall-clock round latency per shard.")
	for _, sn := range snaps {
		printf("richnote_shard_round_latency_avg_seconds{shard=\"%d\"} %g\n", sn.Shard, sn.AvgRound.Seconds())
	}
	gaugeHeader("richnote_shard_lyapunov_q_mb", "Sum of Lyapunov scheduling-queue backlogs Q(t) across the shard's users, in MB.")
	for _, sn := range snaps {
		printf("richnote_shard_lyapunov_q_mb{shard=\"%d\"} %g\n", sn.Shard, sn.Lyapunov.FinalQ)
	}
	gaugeHeader("richnote_shard_lyapunov_p_joules", "Sum of virtual energy queues P(t) across the shard's users, in joules.")
	for _, sn := range snaps {
		printf("richnote_shard_lyapunov_p_joules{shard=\"%d\"} %g\n", sn.Shard, sn.Lyapunov.FinalP)
	}
	gaugeHeader("richnote_shard_ingest_depth", "Publications acknowledged but not yet logged and handed to the shard's engine.")
	for _, sn := range snaps {
		// Index by the snapshot's shard id, not slice position: in cluster
		// node mode Snapshots returns only the owned subset.
		printf("richnote_shard_ingest_depth{shard=\"%d\"} %d\n", sn.Shard, s.shards[sn.Shard].ingest.depth.Load())
	}

	printf("# HELP richnote_shard_rounds_total Completed scheduling rounds per shard.\n# TYPE richnote_shard_rounds_total counter\n")
	for _, sn := range snaps {
		printf("richnote_shard_rounds_total{shard=\"%d\"} %d\n", sn.Shard, sn.Round)
	}
	printf("# HELP richnote_shard_ingest_rejected_total Publications rejected for any reason (backpressure + in-shard drops) per shard.\n# TYPE richnote_shard_ingest_rejected_total counter\n")
	for _, sn := range snaps {
		printf("richnote_shard_ingest_rejected_total{shard=\"%d\"} %d\n", sn.Shard, sn.Backpressured+sn.Dropped)
	}
	printf("# HELP richnote_shard_ingest_backpressured_total Publications rejected with 429 because the ingest queue reached its high-water mark.\n# TYPE richnote_shard_ingest_backpressured_total counter\n")
	for _, sn := range snaps {
		printf("richnote_shard_ingest_backpressured_total{shard=\"%d\"} %d\n", sn.Shard, sn.Backpressured)
	}
	printf("# HELP richnote_shard_ingest_dropped_total Publications discarded in-shard: unknown user with auto-registration disabled, or registration/subscription failure.\n# TYPE richnote_shard_ingest_dropped_total counter\n")
	for _, sn := range snaps {
		printf("richnote_shard_ingest_dropped_total{shard=\"%d\"} %d\n", sn.Shard, sn.Dropped)
	}
}
