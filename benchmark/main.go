// Command benchmark is the repository's benchmark: it builds
// cmd/richnote-serve, launches the real binaries, drives them over HTTP from
// its own generator, checks their outputs and prints every metric by name.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory says what each workload and metric is for.
//
//	go run -C benchmark . -workload ingest [-seed 1] [-seconds 8] [-trace 0|1]
//	go run -C benchmark . -all [-repeat n] [-out dir]
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: ingest, durable, cluster or fanout")
		all      = fs.Bool("all", false, "run the four workloads in turn")
		seed     = fs.Int64("seed", 1, "seed of the generated requests")
		seconds  = fs.Float64("seconds", 8, "length of the main phase (BENCHMARK.json: run_seconds)")
		trace    = fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
		out      = fs.String("out", "", "directory for result and trace files (default .bench_build/out in the checkout)")
		repeat   = fs.Int("repeat", 1, "runs per workload; -compare takes medians and spreads over them")
		quick    = fs.Bool("quick", false, "smoke-test scale: every phase runs, the numbers mean nothing")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	var todo []spec
	switch {
	case *all:
		todo = specs
	default:
		sp, ok := specNamed(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q: want -workload ingest, durable, cluster or fanout, or -all", *workload))
		}
		todo = []spec{sp}
	}
	if *seconds <= 0 || *repeat < 1 {
		return fail(fmt.Errorf("-seconds and -repeat must be positive"))
	}
	if runtime.NumCPU() < loadConns {
		fmt.Fprintf(os.Stderr, "benchmark: sized for %d cores, this machine has %d: expect generator_bound runs\n", loadConns, runtime.NumCPU())
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}

	h, err := newHarness(*out)
	if err != nil {
		return fail(err)
	}
	failed := true
	defer func() { h.close(failed) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		h.close(true)
		os.Exit(130)
	}()
	if err := h.buildServe(); err != nil {
		return fail(err)
	}

	var runs []*result
	good := true
	for _, sp := range todo {
		for i := 0; i < *repeat; i++ {
			var tr *tracer
			if *trace != 0 {
				tr = newTracer()
			}
			r, err := runWorkload(h, sp, sc, *seed, *seconds, tr, *quick)
			h.killAll()
			if err != nil {
				return fail(fmt.Errorf("%s: %w", sp.name, err))
			}
			runs = append(runs, r)
			good = good && r.Correct
			if err := writeJSON(filepath.Join(h.outDir, sp.name+".json"), r); err != nil {
				return fail(err)
			}
			printResult(r)
		}
	}
	if err := writeJSON(filepath.Join(h.outDir, "results.json"), resultFile{Runs: runs}); err != nil {
		return fail(err)
	}
	failed = !good
	if !good {
		return 1
	}
	return 0
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then the one
// JSON line the driver reads.
func printResult(r *result) {
	for _, name := range metricNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("%-8s %-34s %14.4f %s\n", r.Workload, name, m.Value, m.Unit)
	}
	fmt.Printf("%-8s ops=%d failed=%d failed_share=%.6f\n", r.Workload, r.Attempted, r.Failed, r.FailedShare)
	for _, why := range r.Invalid {
		fmt.Printf("%-8s INVALID: %s\n", r.Workload, why)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	fmt.Printf("%s\n", line)
}
