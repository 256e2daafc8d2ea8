package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json names exactly the workloads this program runs, and keeps
// to the limits its reader enforces before a single run.
func TestContractFile(t *testing.T) {
	c, err := loadContract(".")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	for _, w := range c.Workloads {
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !equal(want, got) {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", got, want)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", c.RunSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
	if len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 || len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(c.EndToEnd), len(c.PerLayer))
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range c.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if !equal(names, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Errorf("BENCHMARK.json keys %v", names)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, eps []float64, counters map[string]float64) string {
		var f resultFile
		for _, v := range eps {
			f.Runs = append(f.Runs, &result{
				Workload: "fanout", Seed: 1, Seconds: 6,
				Metrics:  map[string]metric{"publish_eps": {v, "1/s"}, "publish_p50_ms": {0.2, "ms"}},
				Counters: counters,
			})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := map[string]float64{"arrived": 10, "delivered": 9}
	base := mk("a.json", []float64{100, 101, 99, 100}, same)

	var out bytes.Buffer
	worse, err := compareFiles(&out, base, mk("b.json", []float64{98, 99, 100, 97}, same))
	if err != nil || worse {
		t.Fatalf("2%% slower is within a 25%% bound: worse=%v err=%v\n%s", worse, err, &out)
	}
	if !bytes.Contains(out.Bytes(), []byte("within")) || !bytes.Contains(out.Bytes(), []byte("exact")) {
		t.Errorf("want a within verdict and exact counters:\n%s", &out)
	}

	out.Reset()
	worse, err = compareFiles(&out, base, mk("c.json", []float64{60, 61, 59, 60}, same))
	if err != nil || !worse || !bytes.Contains(out.Bytes(), []byte("worse")) {
		t.Errorf("40%% slower must read worse: worse=%v err=%v\n%s", worse, err, &out)
	}

	out.Reset()
	worse, err = compareFiles(&out, base, mk("d.json", []float64{40, 140, 60, 100}, same))
	if err != nil || worse || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("runs spread wider than the bound must read unresolved: worse=%v err=%v\n%s", worse, err, &out)
	}

	out.Reset()
	worse, err = compareFiles(&out, base, mk("e.json", []float64{100, 100, 100, 100}, map[string]float64{"arrived": 10, "delivered": 8}))
	if err != nil || !worse || !bytes.Contains(out.Bytes(), []byte("DIFFERS")) {
		t.Errorf("delivery counters that differ must fail the comparison: worse=%v err=%v\n%s", worse, err, &out)
	}
}
