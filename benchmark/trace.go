package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval at a layer boundary as the harness sees it. Spans of
// one request share Req; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Req     int64   `json:"req,omitempty"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	OK      bool    `json:"ok"`
}

// counterSample is one reading of a child's /proc counters.
type counterSample struct {
	AtUs       float64 `json:"at_us"`
	Proc       string  `json:"proc"`
	CPUS       float64 `json:"cpu_s"`
	HWMKB      float64 `json:"hwm_kb"`
	WriteBytes float64 `json:"write_bytes"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	mu      sync.Mutex
	next    int64
	spans   []span
	samples []counterSample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// interval records one root span and returns its ID for children.
func (t *tracer) interval(name string, start, end time.Time, ok bool) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Name: name, StartUs: t.us(start), EndUs: t.us(end), OK: ok})
	return t.next
}

// request records one HTTP exchange: the request span and its three
// children at the boundaries the generator can see from outside.
func (t *tracer) request(name string, tm timing, ok bool) {
	if t == nil || !t.on.Load() || tm.end.IsZero() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Req: id, Name: name, StartUs: t.us(tm.start), EndUs: t.us(tm.end), OK: ok})
	for _, child := range [...]struct {
		name       string
		start, end time.Time
	}{
		{"conn.write", tm.start, tm.wrote},
		{"conn.wait", tm.wrote, tm.first},
		{"conn.read", tm.first, tm.end},
	} {
		t.next++
		t.spans = append(t.spans, span{ID: t.next, Parent: id, Req: id, Name: child.name,
			StartUs: t.us(child.start), EndUs: t.us(child.end), OK: ok})
	}
}

func (t *tracer) sample(proc string, u procUsage) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples = append(t.samples, counterSample{AtUs: t.us(time.Now()), Proc: proc,
		CPUS: u.cpuS, HWMKB: u.hwmKB, WriteBytes: u.writeBytes})
}

// meanUs averages the duration of every OK span called name.
func (t *tracer) meanUs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, sp := range t.spans {
		if sp.Name == name && sp.OK {
			sum += sp.EndUs - sp.StartUs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// traceFile is what <out>/trace-<workload>.json holds.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Spans    []span            `json:"spans"`
	Samples  []counterSample   `json:"samples"`
	Layers   []json.RawMessage `json:"layer_spans,omitempty"` // spans of the in-process section, as the layer program wrote them
}

func (t *tracer) write(path, workload string, seed int64, layerSpans []json.RawMessage) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, Samples: t.samples, Layers: layerSpans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
