package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/benchmark/gen"
)

// spec is one workload's system under test. The traffic each one gets is
// in phases.go; the reasons for the four are in README.md.
type spec struct {
	name    string
	shards  int
	cluster bool   // router + nodes a and b instead of one standalone process
	manual  bool   // -round 0: rounds happen only through POST /v1/tick
	fsync   string // "" runs without a WAL
	budget  int    // MB/week per user; 0 keeps the server's 100
}

var specs = []spec{
	{name: "ingest", shards: 4},
	// fsync round, not always: one fsync a publish on a virtual disk makes
	// every figure of this workload spread 15-25 % from run to run at any
	// run length the cap allows (README, leads). wal.commit_us.always keeps
	// the always policy measured.
	{name: "durable", shards: 4, fsync: "round"},
	// 8 shards: the cluster ring splits 4 shards 3:1 over two nodes.
	{name: "cluster", shards: 8, cluster: true, fsync: "round"},
	{name: "fanout", shards: 4, manual: true, budget: 5},
}

func specNamed(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

const (
	roundEvery = 100 * time.Millisecond
	serverSeed = "42"

	// loadConns is how many HTTP connections carry load, in every phase:
	// callers of /v1/publish are a few backend services, each waiting for
	// its 202. Two, because the workloads are sized for the two cores the
	// generator shares with the servers, and every phase but the main one
	// needs one connection for the workload's traffic and one to measure on.
	loadConns = 2

	// The server acks a publish once it is in the shard's ingest buffer and
	// appends it to the log afterwards, so a closed loop is not slowed by a
	// slow disk: only this buffer stands between the two, and a publish
	// refused for a full buffer is a failed operation here. It is sized to
	// hold the backlog of a whole run on a disk several times slower than
	// the one the workloads were sized on; throughput is counted to the
	// moment the buffer is empty again, so the backlog is not hidden.
	ingestBuffer = "65536"
)

// system is one running instance of a workload's processes plus the
// generator state bound to it. Addresses are chosen once, so a restart
// comes back where the load connections expect it.
type system struct {
	h    *harness
	sp   spec
	sc   scale
	seed int64
	tr   *tracer

	addr   map[string]string // "serve", "router", "a", "b", "c" (HTTP); "<x>.cluster" (transport)
	walDir string
	procs  map[string]*proc
	front  string // where load is sent

	firstExec time.Time

	conns   []*conn
	streams []*gen.PublishStream
	topics  *gen.FanoutTopics
	fan     *gen.FanoutStream
	rng     *rand.Rand // probe users, feed readers, sampled checks
	tickReq []byte

	acked      atomic.Int64 // envelopes the servers accepted since the system first started
	probesSent int
}

func newSystem(h *harness, sp spec, sc scale, seed int64, tr *tracer) (*system, error) {
	s := &system{
		h: h, sp: sp, sc: sc, seed: seed, tr: tr,
		addr:  make(map[string]string),
		procs: make(map[string]*proc),
		rng:   rand.New(rand.NewSource(seed*1_000_003 + 13)),
	}
	names := []string{"serve"}
	if sp.cluster {
		names = []string{"router", "router.cluster", "a", "a.cluster", "b", "b.cluster", "c", "c.cluster"}
	}
	for _, n := range names {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s.addr[n] = a
	}
	s.front = s.addr["serve"]
	if sp.cluster {
		s.front = s.addr["router"]
	}
	s.tickReq = gen.AppendRequest(nil, "POST", "/v1/tick", s.front, nil)
	if sp.fsync != "" {
		dir, err := os.MkdirTemp(h.tmpDir, sp.name+"-wal-")
		if err != nil {
			return nil, err
		}
		s.walDir = dir
	}
	for c := 0; c < loadConns; c++ {
		s.conns = append(s.conns, newConn(s.front))
		s.streams = append(s.streams, gen.NewPublishStream(seed, c, loadConns, sc.users, s.front))
	}
	if sp.manual {
		s.topics = gen.NewFanoutTopics(seed, sc.users, sc.topics, sc.followers)
		s.fan = gen.NewFanoutStream(seed, s.topics, s.front)
	}
	return s, nil
}

func (s *system) commonArgs() []string {
	args := []string{"-shards", strconv.Itoa(s.sp.shards), "-network", "cell", "-seed", serverSeed, "-buffer", ingestBuffer}
	if s.sp.manual {
		args = append(args, "-round", "0")
	} else {
		args = append(args, "-round", roundEvery.String())
	}
	if s.sp.budget > 0 {
		args = append(args, "-budget", strconv.Itoa(s.sp.budget))
	}
	if s.sp.fsync != "" {
		args = append(args, "-wal.dir", s.walDir, "-wal.fsync", s.sp.fsync)
	}
	return args
}

func (s *system) startNode(name string) error {
	args := append(s.commonArgs(), "-role", "node", "-node.name", name,
		"-addr", s.addr[name], "-cluster.listen", s.addr[name+".cluster"],
		"-join", s.addr["router.cluster"], "-announce.every", "100ms")
	p, err := s.h.start(name, args...)
	if err != nil {
		return err
	}
	s.procs[name] = p
	return nil
}

// launch starts the workload's processes and returns when the front
// answers /healthz with every shard owned.
func (s *system) launch() error {
	s.firstExec = time.Time{}
	if !s.sp.cluster {
		p, err := s.h.start("serve", append(s.commonArgs(), "-addr", s.addr["serve"])...)
		if err != nil {
			return err
		}
		s.procs["serve"], s.firstExec = p, p.started
		_, err = s.h.waitHealthy(s.front, 60*time.Second, nil)
		return err
	}
	for _, name := range []string{"a", "b"} {
		if err := s.startNode(name); err != nil {
			return err
		}
		if s.firstExec.IsZero() {
			s.firstExec = s.procs[name].started
		}
	}
	for _, name := range []string{"a", "b"} {
		if _, err := s.h.waitHealthy(s.addr[name], 60*time.Second, nil); err != nil {
			return err
		}
	}
	p, err := s.h.start("router",
		"-role", "router", "-addr", s.addr["router"], "-shards", strconv.Itoa(s.sp.shards),
		"-peers", "a="+s.addr["a.cluster"]+",b="+s.addr["b.cluster"],
		"-cluster.listen", s.addr["router.cluster"])
	if err != nil {
		return err
	}
	s.procs["router"] = p
	_, err = s.h.waitHealthy(s.front, 60*time.Second, func(body []byte) bool {
		hr, ok := parseHealth(body)
		return ok && hr.owned("") == s.sp.shards && len(hr.UnassignedShards) == 0
	})
	return err
}

// crash is kill -9 on every process of the system.
func (s *system) crash() {
	for name, p := range s.procs {
		s.h.kill(p)
		delete(s.procs, name)
	}
	for _, c := range s.conns {
		c.close()
	}
}

// shardHosts are the processes that own shards and so serve the delivery
// counters and shard gauges: the standalone server, or the cluster's nodes.
func (s *system) shardHosts() []string {
	if !s.sp.cluster {
		return []string{"serve"}
	}
	hosts := []string{"a", "b"}
	if s.procs["c"] != nil {
		hosts = append(hosts, "c")
	}
	return hosts
}

// scrape merges /metrics of every shard host.
func (s *system) scrape() (exposition, error) {
	total := make(exposition)
	for _, name := range s.shardHosts() {
		status, page, err := s.h.get("http://" + s.addr[name] + "/metrics")
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("scrape %s: status %d: %v", name, status, err)
		}
		total.merge(parseExposition(page))
	}
	return total, nil
}

func (s *system) scrapeRouter() exposition {
	_, page, err := s.h.get("http://" + s.addr["router"] + "/metrics")
	if err != nil {
		return exposition{}
	}
	return parseExposition(page)
}

// usageAll reads /proc for every live process, by name.
func (s *system) usageAll() map[string]procUsage {
	out := make(map[string]procUsage, len(s.procs))
	for name, p := range s.procs {
		if u, err := readUsage(p.pid); err == nil {
			out[name] = u
		}
	}
	return out
}
