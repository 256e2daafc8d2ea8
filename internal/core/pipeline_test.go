package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/obs"
	"github.com/richnote/richnote/internal/trace"
)

// testPipeline builds a small, fast pipeline shared by tests in this file.
func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := BuildPipeline(PipelineConfig{
		Trace:  trace.Config{Users: 50, Rounds: 96, Seed: 21},
		Scorer: ScorerOracle, // skip forest training in fast tests
	})
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	return p
}

const mb = 1 << 20

func TestBuildPipelineForest(t *testing.T) {
	p, err := BuildPipeline(PipelineConfig{
		Trace: trace.Config{Users: 30, Rounds: 48, Seed: 5},
	})
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	if p.Scorer == nil || p.Trace == nil {
		t.Fatal("incomplete pipeline")
	}
	if p.Trace.TotalNotifications() == 0 {
		t.Fatal("empty trace")
	}
}

func TestBuildPipelineUnknownScorer(t *testing.T) {
	_, err := BuildPipeline(PipelineConfig{
		Trace:  trace.Config{Users: 10, Rounds: 10, Seed: 1},
		Scorer: ScorerKind(99),
	})
	if err == nil {
		t.Fatal("unknown scorer accepted")
	}
}

// TestBuildPipelineWorkerCountInvariant pins the parallel-build contract:
// any Workers value trains the same forest and enriches the same arrivals
// as a serial build.
func TestBuildPipelineWorkerCountInvariant(t *testing.T) {
	build := func(workers int) *Pipeline {
		t.Helper()
		p, err := BuildPipeline(PipelineConfig{
			Trace:   trace.Config{Users: 30, Rounds: 48, Seed: 5},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("BuildPipeline(workers=%d): %v", workers, err)
		}
		return p
	}
	serial := build(1)
	for _, workers := range []int{2, 8} {
		par := build(workers)
		if !reflect.DeepEqual(par.Arrivals(), serial.Arrivals()) {
			t.Fatalf("workers=%d produced different enriched arrivals than serial build", workers)
		}
		for ui := range serial.Trace.Users {
			for ni := range serial.Trace.Users[ui].Notifications {
				n := &serial.Trace.Users[ui].Notifications[ni]
				if serial.Scorer.Score(n) != par.Scorer.Score(n) {
					t.Fatalf("workers=%d trained a different forest (score mismatch user %d)", workers, ui)
				}
			}
		}
	}
}

func TestBuildPipelineRecordsPhases(t *testing.T) {
	rec := obs.NewRecorder()
	if _, err := BuildPipeline(PipelineConfig{
		Trace:    trace.Config{Users: 10, Rounds: 24, Seed: 3},
		Scorer:   ScorerOracle,
		Recorder: rec,
	}); err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	got := map[string]bool{}
	for _, s := range rec.Spans() {
		got[s.Name] = true
	}
	for _, phase := range []string{"trace", "train", "enrich"} {
		if !got[phase] {
			t.Fatalf("recorder missing phase %q (got %v)", phase, rec.Spans())
		}
	}
}

func TestRunRequiresBudget(t *testing.T) {
	p := testPipeline(t)
	if _, err := p.Run(RunConfig{Strategy: StrategyRichNote}); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestRunRichNoteDeliversNearlyEverything(t *testing.T) {
	p := testPipeline(t)
	res, err := p.Run(RunConfig{
		Strategy:          StrategyRichNote,
		WeeklyBudgetBytes: 20 * mb,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The paper's headline: RichNote delivers close to 100% of
	// notifications by adapting presentation levels.
	if got := res.Report.DeliveryRatio(); got < 0.9 {
		t.Fatalf("RichNote delivery ratio %.3f, want >= 0.9", got)
	}
	if res.Lyapunov.Users != 50 {
		t.Fatalf("controller stats for %d users, want 50", res.Lyapunov.Users)
	}
	if res.Report.Users != 50 {
		t.Fatalf("report covers %d users, want 50", res.Report.Users)
	}
}

func TestRunBaselinesDeliverLessAtLowBudget(t *testing.T) {
	p := testPipeline(t)
	rich, err := p.Run(RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 3 * mb})
	if err != nil {
		t.Fatalf("Run richnote: %v", err)
	}
	fifo, err := p.Run(RunConfig{Strategy: StrategyFIFO, FixedLevel: 3, WeeklyBudgetBytes: 3 * mb})
	if err != nil {
		t.Fatalf("Run fifo: %v", err)
	}
	util, err := p.Run(RunConfig{Strategy: StrategyUtil, FixedLevel: 3, WeeklyBudgetBytes: 3 * mb})
	if err != nil {
		t.Fatalf("Run util: %v", err)
	}
	if rich.Report.DeliveryRatio() <= fifo.Report.DeliveryRatio() {
		t.Fatalf("richnote ratio %.3f not above fifo %.3f",
			rich.Report.DeliveryRatio(), fifo.Report.DeliveryRatio())
	}
	if rich.Report.DeliveryRatio() <= util.Report.DeliveryRatio() {
		t.Fatalf("richnote ratio %.3f not above util %.3f",
			rich.Report.DeliveryRatio(), util.Report.DeliveryRatio())
	}
	// And RichNote earns more total utility (the paper's ~2x claim; we
	// require strictly better).
	if rich.Report.UtilitySum <= util.Report.UtilitySum {
		t.Fatalf("richnote utility %.1f not above util %.1f",
			rich.Report.UtilitySum, util.Report.UtilitySum)
	}
}

func TestRunDeterministicForFixedSeeds(t *testing.T) {
	p := testPipeline(t)
	cfg := RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 10 * mb, Workers: 4}
	r1, err := p.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := p.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Report.Delivered != r2.Report.Delivered ||
		r1.Report.UtilitySum != r2.Report.UtilitySum ||
		r1.Report.DeliveredBytes != r2.Report.DeliveredBytes {
		t.Fatalf("same-seed runs differ: %+v vs %+v", r1.Report, r2.Report)
	}
}

func TestRunWorkerCountInvariant(t *testing.T) {
	p := testPipeline(t)
	base, err := p.Run(RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 10 * mb, Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	par, err := p.Run(RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 10 * mb, Workers: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if base.Report.Delivered != par.Report.Delivered ||
		base.Report.UtilitySum != par.Report.UtilitySum {
		t.Fatalf("worker count changed results: %v vs %v", base.Report, par.Report)
	}
}

func TestRunWifiRicherThanCellular(t *testing.T) {
	p := testPipeline(t)
	cellOnly := network.CellOnlyMatrix()
	wifi := network.PaperMatrix()
	cell, err := p.Run(RunConfig{
		Strategy: StrategyRichNote, WeeklyBudgetBytes: 10 * mb, NetworkMatrix: &cellOnly,
	})
	if err != nil {
		t.Fatalf("Run cell: %v", err)
	}
	wifiRes, err := p.Run(RunConfig{
		Strategy: StrategyRichNote, WeeklyBudgetBytes: 10 * mb, NetworkMatrix: &wifi,
		StartState: network.StateCell,
	})
	if err != nil {
		t.Fatalf("Run wifi: %v", err)
	}
	richShare := func(r *RunResult) float64 {
		share := r.Report.LevelShare()
		return share[4] + share[5] + share[6]
	}
	if richShare(wifiRes) <= richShare(cell) {
		t.Fatalf("wifi rich-level share %.3f not above cellular %.3f (Fig 5c)",
			richShare(wifiRes), richShare(cell))
	}
}

// TestRunConfigZeroValueSentinels pins the documented defaults: Seed: 0
// resolves to the trace seed (an explicit zero seed cannot be expressed)
// and StartState: 0 resolves to network.StateCell.
func TestRunConfigZeroValueSentinels(t *testing.T) {
	const traceSeed = int64(1234)

	cfg := RunConfig{WeeklyBudgetBytes: 1}
	if err := cfg.applyDefaults(traceSeed); err != nil {
		t.Fatalf("applyDefaults: %v", err)
	}
	if cfg.Seed != traceSeed {
		t.Fatalf("Seed 0 resolved to %d, want trace seed %d", cfg.Seed, traceSeed)
	}
	if cfg.StartState != network.StateCell {
		t.Fatalf("StartState 0 resolved to %v, want StateCell", cfg.StartState)
	}
	if cfg.Strategy != StrategyRichNote || cfg.FixedLevel != 3 {
		t.Fatalf("strategy/level defaults %v/%d, want richnote/3", cfg.Strategy, cfg.FixedLevel)
	}
	if cfg.V != DefaultV || cfg.KappaJ != DefaultKappaJ {
		t.Fatalf("V/kappa defaults %f/%f, want %f/%f", cfg.V, cfg.KappaJ, DefaultV, DefaultKappaJ)
	}
	if cfg.Workers < 1 {
		t.Fatalf("Workers default %d, want >= 1", cfg.Workers)
	}

	// An explicit Seed: 0 is indistinguishable from unset: both runs are
	// seeded with the trace seed and must produce identical results.
	explicit := RunConfig{WeeklyBudgetBytes: 1, Seed: 0, StartState: 0}
	if err := explicit.applyDefaults(traceSeed); err != nil {
		t.Fatalf("applyDefaults: %v", err)
	}
	if explicit.Seed != cfg.Seed || explicit.StartState != cfg.StartState {
		t.Fatalf("explicit zero sentinels resolved differently: %+v vs %+v", explicit, cfg)
	}

	// Nonzero values pass through untouched.
	set := RunConfig{WeeklyBudgetBytes: 1, Seed: 77, StartState: network.StateWifi}
	if err := set.applyDefaults(traceSeed); err != nil {
		t.Fatalf("applyDefaults: %v", err)
	}
	if set.Seed != 77 || set.StartState != network.StateWifi {
		t.Fatalf("explicit values overridden: seed %d state %v", set.Seed, set.StartState)
	}
}

func TestRunNamesBaselinesWithLevel(t *testing.T) {
	p := testPipeline(t)
	res, err := p.Run(RunConfig{Strategy: StrategyFIFO, FixedLevel: 2, WeeklyBudgetBytes: 5 * mb})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Name != "fifo-L2" {
		t.Fatalf("name %q, want fifo-L2", res.Name)
	}
	rich, err := p.Run(RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 5 * mb})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rich.Name != "richnote" {
		t.Fatalf("name %q, want richnote", rich.Name)
	}
}

// TestRunReportPinned pins Pipeline.Run's output, value for value, on a
// small oracle-scored workload under every device discipline a RunConfig
// can select — including the faults-on path, which no figure CSV covers.
// The constants were generated by the per-user driver that predates
// core.Engine; any change to them is a change in scheduling behaviour.
func TestRunReportPinned(t *testing.T) {
	p, err := BuildPipeline(PipelineConfig{
		Trace:  trace.Config{Users: 20, Rounds: 48, Seed: 33},
		Scorer: ScorerOracle,
	})
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	paper := network.PaperMatrix()
	cases := []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"richnote", RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 3 * mb, NetworkMatrix: &paper},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:5587 DeliveredBytes:2255717400 UtilitySum:877.8607944098924 TrueUtilitySum:877.8607944098924 ClickedAndDelivered:1731 DeliveredBeforeClick:1565 EnergyJ:18262.905000000137 DelayRoundsSum:3350 LevelCounts:map[1:2662 2:104 3:19 4:3 6:2799] TransferFailures:0 RetriedDeliveries:0 DegradedDeliveries:0 Dropped:0 WastedEnergyJ:0 DelayP50Rounds:0 DelayP95Rounds:3} {Users:20 AvgQMB:7.042734622955322 MaxQMB:228.44009399414062 AvgDrift:-1.2325662681871126}"},
		{"fifo", RunConfig{Strategy: StrategyFIFO, FixedLevel: 2, WeeklyBudgetBytes: 3 * mb},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:158 DeliveredBytes:15831600 UtilitySum:10.456976648455496 TrueUtilitySum:10.456976648455496 ClickedAndDelivered:39 DeliveredBeforeClick:11 EnergyJ:1926.5399999999997 DelayRoundsSum:560 LevelCounts:map[2:158] TransferFailures:0 RetriedDeliveries:0 DegradedDeliveries:0 Dropped:0 WastedEnergyJ:0 DelayP50Rounds:4 DelayP95Rounds:5} {Users:0 AvgQMB:0 MaxQMB:0 AvgDrift:0}"},
		{"util", RunConfig{Strategy: StrategyUtil, WeeklyBudgetBytes: 3 * mb, NetworkMatrix: &paper, MaxDeliveriesPerRound: 2},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:491 DeliveredBytes:98298200 UtilitySum:140.74877120254266 TrueUtilitySum:140.74877120254266 ClickedAndDelivered:289 DeliveredBeforeClick:241 EnergyJ:1810.3573999999996 DelayRoundsSum:411 LevelCounts:map[3:491] TransferFailures:0 RetriedDeliveries:0 DegradedDeliveries:0 Dropped:0 WastedEnergyJ:0 DelayP50Rounds:0 DelayP95Rounds:4} {Users:0 AvgQMB:0 MaxQMB:0 AvgDrift:0}"},
		{"util-queued", RunConfig{Strategy: StrategyUtil, WeeklyBudgetBytes: 3 * mb, QueuedBaselines: true},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:80 DeliveredBytes:16016000 UtilitySum:31.81697691763742 TrueUtilitySum:31.81697691763742 ClickedAndDelivered:63 DeliveredBeforeClick:14 EnergyJ:1180.3999999999999 DelayRoundsSum:636 LevelCounts:map[3:80] TransferFailures:0 RetriedDeliveries:0 DegradedDeliveries:0 Dropped:0 WastedEnergyJ:0 DelayP50Rounds:7 DelayP95Rounds:19} {Users:0 AvgQMB:0 MaxQMB:0 AvgDrift:0}"},
		{"util-per-round", RunConfig{Strategy: StrategyUtil, WeeklyBudgetBytes: 50 * mb, PerRoundBudget: true, NetworkMatrix: &paper},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:3007 DeliveredBytes:602001400 UtilitySum:484.406011769869 TrueUtilitySum:484.406011769869 ClickedAndDelivered:984 DeliveredBeforeClick:894 EnergyJ:7152.805000000002 DelayRoundsSum:1738 LevelCounts:map[3:3007] TransferFailures:0 RetriedDeliveries:0 DegradedDeliveries:0 Dropped:0 WastedEnergyJ:0 DelayP50Rounds:0 DelayP95Rounds:3} {Users:0 AvgQMB:0 MaxQMB:0 AvgDrift:0}"},
		{"richnote-dominance", RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 3 * mb, UseDominance: true},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:5604 DeliveredBytes:16220800 UtilitySum:38.26391133864356 TrueUtilitySum:38.26391133864356 ClickedAndDelivered:1742 DeliveredBeforeClick:1742 EnergyJ:5573.019999999981 DelayRoundsSum:0 LevelCounts:map[1:5455 2:147 3:2] TransferFailures:0 RetriedDeliveries:0 DegradedDeliveries:0 Dropped:0 WastedEnergyJ:0 DelayP50Rounds:0 DelayP95Rounds:0} {Users:20 AvgQMB:0 MaxQMB:0 AvgDrift:11.861064481382822}"},
		{"richnote-faults", RunConfig{Strategy: StrategyRichNote, WeeklyBudgetBytes: 3 * mb, NetworkMatrix: &paper,
			Faults:      network.FaultConfig{CellLoss: 0.3, CellDisconnect: 0.1, WifiLoss: 0.05},
			MaxAttempts: 3, DegradeOnFailure: true},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:5454 DeliveredBytes:2538690800 UtilitySum:983.3537983643644 TrueUtilitySum:983.3537983643644 ClickedAndDelivered:1689 DeliveredBeforeClick:1403 EnergyJ:20980.96550000013 DelayRoundsSum:5172 LevelCounts:map[1:2157 2:100 3:18 4:5 5:86 6:3088] TransferFailures:1693 RetriedDeliveries:1124 DegradedDeliveries:187 Dropped:85 WastedEnergyJ:25.3047 DelayP50Rounds:0 DelayP95Rounds:4} {Users:20 AvgQMB:11.659963130950928 MaxQMB:240.4632568359375 AvgDrift:-0.024701001266879193}"},
		{"fifo-faults", RunConfig{Strategy: StrategyFIFO, WeeklyBudgetBytes: 10 * mb, QueuedBaselines: true,
			Faults:      network.FaultConfig{CellLoss: 0.3, CellDisconnect: 0.1},
			MaxAttempts: 2},
			"{Users:20 Arrived:5604 ClickedTotal:1742 Delivered:280 DeliveredBytes:56056000 UtilitySum:37.274419796594245 TrueUtilitySum:37.274419796594245 ClickedAndDelivered:79 DeliveredBeforeClick:1 EnergyJ:6045.486524999999 DelayRoundsSum:6091 LevelCounts:map[3:280] TransferFailures:200 RetriedDeliveries:78 DegradedDeliveries:0 Dropped:61 WastedEnergyJ:139.58652499999997 DelayP50Rounds:22 DelayP95Rounds:40} {Users:0 AvgQMB:0 MaxQMB:0 AvgDrift:0}"},
	}
	for _, tc := range cases {
		tc.cfg.Workers = 3
		res, err := p.Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The conversion drops Report's String method so every field prints.
		type fields metrics.Report
		if got := fmt.Sprintf("%+v %+v", fields(res.Report), res.Lyapunov); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
