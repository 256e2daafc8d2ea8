// Command richnote-bench regenerates every table and figure of the paper's
// evaluation (Section V) and writes one CSV per experiment plus aligned
// tables on stdout.
//
// Usage:
//
//	richnote-bench [-users N] [-rounds N] [-seed N] [-out DIR] [-only IDs] [-quick]
//	               [-workers N] [-cpuprofile FILE] [-memprofile FILE]
//
// The -capacity mode instead runs the serving-capacity benchmark
// (DESIGN.md §14): max sustained users per node at a fixed round interval
// under a sparse workload, written to C1.csv:
//
//	richnote-bench -capacity [-quick] [-seed N] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/experiments"
	"github.com/richnote/richnote/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "richnote-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		users   = flag.Int("users", 0, "simulated users (0 = profile default)")
		rounds  = flag.Int("rounds", 0, "rounds (0 = profile default)")
		seed    = flag.Int64("seed", 0, "master seed (0 = profile default)")
		outDir  = flag.String("out", "bench_results", "output directory for CSVs")
		only    = flag.String("only", "", "comma-separated experiment IDs (e.g. F3a,F4a); empty = all")
		quick   = flag.Bool("quick", false, "use the reduced quick profile")
		workers = flag.Int("workers", 0, "build/run worker goroutines (0 = all CPUs)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		prom    = flag.Bool("prom", false, "also print the Prometheus exposition of one paper-default RichNote run")
		capac   = flag.Bool("capacity", false, "run the serving-capacity benchmark instead of the paper experiments")
	)
	flag.Parse()

	if *capac {
		return runCapacity(*outDir, *quick, *seed)
	}

	stopCPU, err := obs.StartCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "richnote-bench:", err)
		}
		if err := obs.WriteHeapProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "richnote-bench:", err)
		}
	}()

	scale := experiments.DefaultScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *users > 0 {
		scale.Users = *users
	}
	if *rounds > 0 {
		scale.Rounds = *rounds
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	scale.Workers = *workers
	rec := obs.NewRecorder()
	scale.Recorder = rec

	fmt.Printf("building workload: %d users x %d rounds (seed %d)...\n",
		scale.Users, scale.Rounds, scale.Seed)
	start := time.Now()
	suite, err := experiments.NewSuite(scale)
	if err != nil {
		return err
	}
	fmt.Printf("workload ready in %s: %d notifications, click rate %.3f\n",
		time.Since(start).Round(time.Millisecond),
		suite.Pipeline().Trace.TotalNotifications(),
		suite.Pipeline().Trace.ClickRate())
	fmt.Printf("build phases:\n%s\n", rec)

	if *prom {
		run, err := suite.Pipeline().Run(core.RunConfig{
			Strategy:          core.StrategyRichNote,
			WeeklyBudgetBytes: 20 << 20, // the paper's 20 MB/week plan
		})
		if err != nil {
			return err
		}
		fmt.Printf("# Prometheus exposition (%s, paper defaults)\n%s\n", run.Name, run.Collector.Exposition())
	}

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	results, err := suite.RunIDs(ids)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", *outDir, err)
	}
	for _, r := range results {
		fmt.Println(experiments.Render(r))
		if r.Notes != "" {
			fmt.Printf("notes: %s\n", r.Notes)
		}
		fmt.Println()
		path := filepath.Join(*outDir, r.ID+".csv")
		if err := os.WriteFile(path, []byte(experiments.RenderCSV(r)), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	fmt.Printf("CSVs written to %s/ (total %s)\n", *outDir, time.Since(start).Round(time.Millisecond))
	return nil
}
