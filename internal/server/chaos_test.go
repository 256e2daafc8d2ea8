package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/richnote/richnote/internal/network"
)

// chaosConfig is testConfig plus heavy fault injection: 20% of cellular
// transfers lost outright, 10% disconnected mid-stream, items dropped after
// 5 failed attempts, degradation enabled.
func chaosConfig(shards int) Config {
	cfg := testConfig(shards)
	cfg.Faults = network.FaultConfig{CellLoss: 0.2, CellDisconnect: 0.1}
	cfg.Default.MaxAttempts = 5
	cfg.Default.DegradeOnFailure = true
	return cfg
}

// TestChaosFaultInjectedDelivery is the chaos integration test: a sharded
// server under concurrent HTTP load with a 30% cellular failure rate. Run
// under -race it exercises the ingest/shard-loop boundary; afterwards it
// asserts that nothing is stuck (every arrival is delivered or dropped
// within bounded retries), that refunds never exceed charges on any device
// (no double-spend), and that the failure counters actually moved.
func TestChaosFaultInjectedDelivery(t *testing.T) {
	s := startServer(t, chaosConfig(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := runLoad(context.Background(), loadOpts{
		url: ts.URL, events: 150, workers: 4, users: 12, seed: 9, tickEvery: 25,
	})
	if res.accepted == 0 {
		t.Fatalf("load accepted nothing: %+v", res)
	}

	// Keep ticking until every queue drains. MaxAttempts bounds retries, so
	// a finite number of rounds must reach quiescence — a stuck queue shows
	// up here as the round cap expiring with depth still positive.
	drained := false
	for i := 0; i < 200; i++ {
		httpTick(t, ts.URL)
		depth := 0
		for _, snap := range s.Snapshots() {
			depth += snap.QueueDepth + snap.BrokerPending
		}
		if depth == 0 {
			drained = true
			break
		}
	}
	if !drained {
		for _, snap := range s.Snapshots() {
			t.Errorf("shard %d stuck: queue depth %d, broker pending %d after 200 drain rounds",
				snap.Shard, snap.QueueDepth, snap.BrokerPending)
		}
	}

	var arrived, delivered, dropped, failures int
	for _, snap := range s.Snapshots() {
		if snap.Err != "" {
			t.Errorf("shard %d reported round error: %s", snap.Shard, snap.Err)
		}
		arrived += snap.Report.Arrived
		delivered += snap.Report.Delivered
		dropped += snap.Report.Dropped
		failures += snap.Report.TransferFailures
	}
	if failures == 0 {
		t.Error("no transfer failures at 30% cellular fault rate: chaos was not injected")
	}
	if arrived != delivered+dropped {
		t.Errorf("conservation violated: arrived %d != delivered %d + dropped %d",
			arrived, delivered, dropped)
	}

	// The exposition must carry the new failure counters.
	body := httpGet(t, ts.URL+"/metrics")
	for _, metric := range []string{
		"richnote_transfer_failures_total",
		"richnote_dropped_total",
		"richnote_wasted_energy_joules_total",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics exposition missing %s", metric)
		}
	}

	// Shut down so the shard goroutines exit, then audit every device's
	// data-plan ledger: refunds must never exceed debits, and the running
	// balance must never have been driven negative.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	audited := 0
	for _, sh := range s.shards {
		for _, u := range sh.eng.Users() {
			dev, err := sh.eng.Device(u)
			if err != nil {
				t.Fatalf("user %d: %v", u, err)
			}
			debited, refunded := dev.BudgetLedger()
			if refunded > debited {
				t.Errorf("user %d double-refunded: refunded %f > debited %f", u, refunded, debited)
			}
			if dev.Budget() < 0 {
				t.Errorf("user %d data budget overdrawn: %f", u, dev.Budget())
			}
			if dev.QueueLen() != 0 {
				t.Errorf("user %d still has %d queued items after drain", u, dev.QueueLen())
			}
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("no devices to audit")
	}
}
