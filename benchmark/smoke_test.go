package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs every workload at -quick scale, untraced and traced,
// through the same entry point the command line uses. It builds
// richnote-serve and the layers program from the checkout, so API drift in
// internal/server, internal/wal or internal/transport fails here first,
// and it holds the printed metrics to the names BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real binaries; skipped in -short mode")
	}
	c, err := loadContract(".")
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []contractMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	for _, mode := range []struct {
		trace string
		want  []string
	}{{"0", names(c.EndToEnd)}, {"1", names(c.PerLayer)}} {
		for _, sp := range specs {
			lines := capture(t, func() int {
				return run([]string{"-quick", "-workload", sp.name, "-seconds", "2", "-seed", "3", "-trace", mode.trace, "-out", t.TempDir()})
			})
			var last struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", sp.name, mode.trace, err, strings.Join(lines, "\n"))
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", sp.name, mode.trace, last.Correct, last.Attempted, last.Failed, strings.Join(lines, "\n"))
			}
			var got []string
			for name, m := range last.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(got)
			if !equal(got, mode.want) {
				t.Errorf("%s trace=%s prints\n%v\nBENCHMARK.json promises\n%v", sp.name, mode.trace, got, mode.want)
			}
			if mode.trace == "0" {
				for name, m := range last.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want a positive value on every workload", sp.name, name, m.Value)
					}
				}
			}
		}
	}
}

// capture runs fn with stdout redirected and returns what it printed, by
// line; fn's exit code must be 0.
func capture(t *testing.T, fn func() int) []string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r) // a broken pipe shows as missing output below
		done <- data
	}()
	code := fn()
	os.Stdout = old
	w.Close()
	out := strings.Split(strings.TrimSpace(string(<-done)), "\n")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, strings.Join(out, "\n"))
	}
	return out
}
