package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// contract is BENCHMARK.json: the workloads and metrics this benchmark
// promises, with the bound each end-to-end metric may worsen by.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadContract finds BENCHMARK.json in dir or a parent of it.
func loadContract(dir string) (*contract, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var c contract
			if err := json.Unmarshal(data, &c); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &c, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json here or above")
		}
		dir = parent
	}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them, which is what the acceptance
// rule for this benchmark is written in.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func readRuns(path string) (map[string][]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		// A single run's file, as <out>/<workload>.json holds it.
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s holds no runs", path)
		}
		f.Runs = []*result{&r}
	}
	by := make(map[string][]*result)
	for _, r := range f.Runs {
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the ratio b/a, the bound and a verdict: "within" the bound, "worse" by
// more than it, or "unresolved" when either side's own runs spread wider
// than the bound (unless every run of b beats every run of a). The fanout
// delivery counters must agree exactly. It returns whether anything is
// worse or differs.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	wd, err := os.Getwd()
	if err != nil {
		return false, err
	}
	c, err := loadContract(wd)
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-8s %-18s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "spread", "verdict")
	for _, wl := range c.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range c.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spread := max(spreadOf(va), spreadOf(vb))
			lower := m.Better == "lower"
			worse := mb > ma*(1+m.Bound)
			if !lower {
				worse = mb < ma*(1-m.Bound)
			}
			verdict := "within"
			switch {
			case spread > m.Bound && !allBetter(va, vb, lower):
				verdict = "unresolved"
			case worse:
				verdict = "worse"
				bad = true
			}
			fmt.Fprintf(w, "%-8s %-18s %12.4f %12.4f %8.4f %6.2f %7.4f  %s\n", wl.Name, m.Name, ma, mb, mb/ma, m.Bound, spread, verdict)
		}
		if ca, cb := ra[0].Counters, rb[0].Counters; len(ca) > 0 && ra[0].Seed == rb[0].Seed && ra[0].Seconds == rb[0].Seconds {
			same := len(ca) == len(cb)
			for k, v := range ca {
				same = same && cb[k] == v
			}
			verdict := "exact"
			if !same {
				verdict = "DIFFERS"
				bad = true
			}
			fmt.Fprintf(w, "%-8s delivery counters (arrived %.0f, delivered %.0f): %s\n", wl.Name, ca["arrived"], ca["delivered"], verdict)
		}
	}
	return bad, nil
}

func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spreadOf is the interquartile range of v as a share of its median; 0
// for a single run, which has no spread to show.
func spreadOf(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, lower bool) bool {
	sa, sb := sorted(a), sorted(b)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}
