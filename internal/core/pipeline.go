// Package core assembles the full RichNote framework of Section IV: the
// pipeline from raw notification trace through content-utility learning,
// presentation generation and utility scoring, into the per-user
// round-based scheduler, producing the evaluation metrics of Section V.
//
// Engine is the one driver of the paper's round procedure (Algorithm 2);
// three hosts feed it arrivals and call Step:
//
//   - Pipeline/Run: trace-driven batch evaluation. A Pipeline owns the
//     generated workload, the trained content-utility model and the
//     pre-enriched per-round arrivals; Run executes one scheduling
//     configuration (strategy, budget, network model, Lyapunov knobs) over
//     it. Building the pipeline once and sweeping Run configurations is
//     how every figure of the paper is regenerated.
//   - Live: an event-kernel-driven service wired through the pub/sub
//     broker, for interactive/streaming use (see the examples).
//   - internal/server's shard: the online service (WAL, HTTP, cluster).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/ml/forest"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/obs"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/survey"
	"github.com/richnote/richnote/internal/trace"
	"github.com/richnote/richnote/internal/utility"
)

// ScorerKind selects the content-utility model.
type ScorerKind int

// Content-utility model choices.
const (
	// ScorerForest trains the paper's Random Forest on the trace labels.
	ScorerForest ScorerKind = iota + 1
	// ScorerOracle uses the latent ground-truth probability (upper bound).
	ScorerOracle
	// ScorerConstant assigns Uc = 0.5 to everything (lower bound).
	ScorerConstant
)

// PipelineConfig configures workload generation and utility modeling.
type PipelineConfig struct {
	// Trace configures the synthetic workload (users, rounds, rates).
	Trace trace.Config
	// ExternalTrace replays a pre-generated workload instead of generating
	// one from Trace — e.g. a file loaded with trace.ReadFile, or the tail
	// of a trace.SplitByRound split for out-of-sample evaluation.
	ExternalTrace *trace.Trace
	// Scorer defaults to ScorerForest.
	Scorer ScorerKind
	// ExternalScorer overrides Scorer with a prebuilt content-utility
	// model, e.g. a forest trained on a different time window.
	ExternalScorer utility.ContentScorer
	// Forest configures the Random Forest when Scorer is ScorerForest.
	Forest forest.Config
	// AudioUtility is the duration-to-utility curve for presentation
	// generation; defaults to the paper's Equation 8.
	AudioUtility media.UtilityFn
	// Workers bounds build-phase parallelism: forest training fans out
	// over per-tree-seeded workers and enrichment shards users, both
	// producing results identical to a serial build. 0 selects
	// runtime.NumCPU(). Forest.Workers, when set, overrides this for the
	// training phase only.
	Workers int
	// Recorder, when non-nil, receives build-phase wall-clock timings
	// (phases "trace", "train", "enrich").
	Recorder *obs.Recorder
}

// Pipeline is a prepared workload: trace, trained scorer and pre-enriched
// per-user, per-round arrivals. Safe for concurrent Run calls.
type Pipeline struct {
	cfg   PipelineConfig
	Trace *trace.Trace
	// Gen is nil when the pipeline replays an external trace.
	Gen      *trace.Generator
	Scorer   utility.ContentScorer
	enricher *utility.Enricher
	seed     int64

	// arrivals[user][round] lists the enriched items arriving that round.
	arrivals [][][]sched.Queued
}

// BuildPipeline generates the trace, trains the content-utility model and
// pre-enriches every notification. Training and enrichment run on up to
// cfg.Workers goroutines; the built pipeline is identical for any worker
// count.
func BuildPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Scorer == 0 {
		cfg.Scorer = ScorerForest
	}
	if cfg.AudioUtility == nil {
		cfg.AudioUtility = survey.Equation8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	var gen *trace.Generator
	var tr *trace.Trace
	var seed int64
	if cfg.ExternalTrace != nil {
		tr = cfg.ExternalTrace
		seed = tr.MasterSeed
	} else {
		stopTrace := cfg.Recorder.Time("trace")
		g, err := trace.NewGenerator(cfg.Trace)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		generated, err := g.Generate()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		gen, tr = g, generated
		seed = g.Config().Seed
		stopTrace()
	}

	stopTrain := cfg.Recorder.Time("train")
	var scorer utility.ContentScorer
	if cfg.ExternalScorer != nil {
		scorer = cfg.ExternalScorer
		cfg.Scorer = -1 // sentinel: skip construction below
	}
	switch cfg.Scorer {
	case -1:
		// ExternalScorer already set.
	case ScorerForest:
		fcfg := cfg.Forest
		if fcfg.Trees == 0 {
			fcfg.Trees = 40
		}
		if fcfg.Seed == 0 {
			fcfg.Seed = seed + 1
		}
		if fcfg.Workers == 0 {
			fcfg.Workers = cfg.Workers
		}
		s, err := utility.TrainForestScorer(tr, fcfg)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		scorer = s
	case ScorerOracle:
		scorer = utility.OracleScorer{}
	case ScorerConstant:
		scorer = utility.ConstantScorer{Value: 0.5}
	default:
		return nil, fmt.Errorf("core: unknown scorer kind %d", cfg.Scorer)
	}
	stopTrain()

	audioGen, err := media.NewAudioGenerator(media.AudioConfig{Utility: cfg.AudioUtility})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	enricher, err := utility.NewEnricher(scorer, audioGen)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	p := &Pipeline{cfg: cfg, Trace: tr, Gen: gen, Scorer: scorer, enricher: enricher, seed: seed}
	stopEnrich := cfg.Recorder.Time("enrich")
	if err := p.enrichAll(cfg.Workers); err != nil {
		return nil, err
	}
	stopEnrich()
	return p, nil
}

// enrichAll precomputes the per-round arrival lists once; Run
// configurations share them read-only. Users shard across workers the
// same way Run shards them; each user's arrivals depend only on that
// user's notifications and the (read-only) scorer, so the result is
// identical to a serial pass.
func (p *Pipeline) enrichAll(workers int) error {
	users := len(p.Trace.Users)
	p.arrivals = make([][][]sched.Queued, users)
	if workers > users {
		workers = users
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ui := w; ui < users; ui += workers {
				if err := p.enrichUser(ui); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// enrichUser fills p.arrivals[ui] from that user's raw notifications.
func (p *Pipeline) enrichUser(ui int) error {
	perRound := make([][]sched.Queued, p.Trace.Rounds)
	for ni := range p.Trace.Users[ui].Notifications {
		n := &p.Trace.Users[ui].Notifications[ni]
		rich, err := p.enricher.Enrich(n)
		if err != nil {
			return fmt.Errorf("core: enrich: %w", err)
		}
		if n.Round < 0 || n.Round >= p.Trace.Rounds {
			return fmt.Errorf("core: notification round %d outside trace", n.Round)
		}
		perRound[n.Round] = append(perRound[n.Round], sched.Queued{
			Rich:       rich,
			Clicked:    n.Clicked,
			ClickRound: n.ClickRound,
			TrueUc:     n.LatentP,
		})
	}
	p.arrivals[ui] = perRound
	return nil
}

// Arrivals exposes the pre-enriched per-user, per-round arrival lists:
// arrivals[user][round] are the items entering that user's scheduler in
// that round. The returned structure is shared and must be treated as
// read-only; the experiments package uses it to compute hindsight bounds.
func (p *Pipeline) Arrivals() [][][]sched.Queued { return p.arrivals }

// StrategyKind selects the scheduling method under evaluation.
type StrategyKind int

// Scheduling methods of Section V-C.
const (
	StrategyRichNote StrategyKind = iota + 1
	StrategyFIFO
	StrategyUtil
)

// String names the strategy kind.
func (k StrategyKind) String() string {
	switch k {
	case StrategyRichNote:
		return "richnote"
	case StrategyFIFO:
		return "fifo"
	case StrategyUtil:
		return "util"
	default:
		return fmt.Sprintf("StrategyKind(%d)", int(k))
	}
}

// DefaultKappaJ is the per-round energy target κ. The paper quotes 3 kJ per
// hourly round against its trace-driven energy model; with the IMC 2009
// transfer model used here the equivalent pressure point is ~30 J per round
// (see EXPERIMENTS.md, "Energy scale").
const DefaultKappaJ = 30.0

// DefaultV is the Lyapunov utility weight (paper: 1000).
const DefaultV = 1000.0

// RunConfig is one scheduling configuration to evaluate over a pipeline.
type RunConfig struct {
	Strategy StrategyKind
	// FixedLevel is the presentation level used by FIFO and UTIL
	// (ignored by RichNote). The paper fixes baselines at levels with 5 s
	// or 10 s previews (levels 2 and 3).
	FixedLevel int
	// WeeklyBudgetBytes is the per-user cellular plan per week.
	WeeklyBudgetBytes int64
	// V and KappaJ tune the Lyapunov controller; zero selects defaults.
	V      float64
	KappaJ float64
	// NetworkMatrix defaults to network.AlwaysCellMatrix().
	NetworkMatrix *network.Matrix
	// StartState defaults to network.StateCell. Zero is a sentinel, not a
	// state: an explicit StartState of 0 (network.StateOff is 1) cannot be
	// expressed and always resolves to StateCell.
	StartState network.State
	// Capacity defaults to network.DefaultCapacity().
	Capacity *network.Capacity
	// Transfer defaults to energy.DefaultTransferModel().
	Transfer *energy.TransferModel
	// Seed perturbs the per-run randomness (network, battery); defaults to
	// the trace seed. Zero is a sentinel: an explicit Seed of 0 silently
	// becomes the trace seed, so runs that must differ need nonzero seeds.
	Seed int64
	// Workers bounds parallelism across users; 0 selects NumCPU.
	Workers int
	// MaxDeliveriesPerRound caps notifications pushed per device per round
	// (the delivery-queue pace); 0 selects the device default.
	MaxDeliveriesPerRound int
	// PerRoundBudget disables data-budget rollover for this run. Algorithm
	// 2 rolls budget over for RichNote; industry pipelines often do not,
	// which is the A3 baseline-variant ablation.
	PerRoundBudget bool
	// QueuedBaselines keeps FIFO/UTIL items in a persistent queue retried
	// every round (a stronger discipline than deployed batch digests).
	// The default drops what a round's budget cannot afford, matching the
	// industry behaviour the paper baselines against; RichNote always
	// keeps its scheduling queue either way.
	QueuedBaselines bool
	// UseDominance makes RichNote's per-round MCKP use the Sinha-Zoltners
	// LP-dominance greedy instead of the paper's level-by-level variant.
	UseDominance bool
	// Faults injects per-transfer failures into every device (per-user
	// deterministic streams derived from the run seed). The zero value
	// injects none and keeps run output bit-identical to a fault-free
	// build.
	Faults network.FaultConfig
	// MaxAttempts bounds failed transfer attempts per item before the
	// device drops it; 0 retries forever. Only meaningful with Faults.
	MaxAttempts int
	// DegradeOnFailure lowers a failed item's presentation cap one level
	// per retry. Only meaningful with Faults.
	DegradeOnFailure bool
}

func (c *RunConfig) applyDefaults(traceSeed int64) error {
	if c.Strategy == 0 {
		c.Strategy = StrategyRichNote
	}
	if c.FixedLevel == 0 {
		c.FixedLevel = 3 // metadata + 10 s, Spotify's current behaviour
	}
	if c.WeeklyBudgetBytes <= 0 {
		return errors.New("core: weekly budget must be positive")
	}
	if c.V == 0 {
		c.V = DefaultV
	}
	if c.KappaJ == 0 {
		c.KappaJ = DefaultKappaJ
	}
	if c.NetworkMatrix == nil {
		m := network.AlwaysCellMatrix()
		c.NetworkMatrix = &m
	}
	if c.StartState == 0 {
		c.StartState = network.StateCell
	}
	if c.Seed == 0 {
		c.Seed = traceSeed
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// RunResult is the outcome of one configuration.
type RunResult struct {
	Config    RunConfig
	Name      string
	Report    metrics.Report
	Collector *metrics.Collector
	// Lyapunov aggregates controller telemetry across users (RichNote
	// runs only).
	Lyapunov LyapunovSummary
	// Elapsed is the wall-clock execution time of the run.
	Elapsed time.Duration
}

// LyapunovSummary aggregates per-user controller stats.
type LyapunovSummary struct {
	Users    int
	AvgQMB   float64 // mean of per-user average backlog (MB)
	MaxQMB   float64
	AvgDrift float64
}

// Run executes one configuration over the pipeline's workload.
func (p *Pipeline) Run(cfg RunConfig) (*RunResult, error) {
	if err := cfg.applyDefaults(p.seed); err != nil {
		return nil, err
	}
	start := time.Now()

	users := len(p.Trace.Users)
	workers := cfg.Workers
	if workers > users {
		workers = users
	}
	if workers < 1 {
		workers = 1
	}

	engines := make([]*Engine, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			engines[w], errs[w] = p.runWorker(cfg, w, workers)
		}()
	}
	wg.Wait()

	merged := metrics.NewCollector()
	var summary LyapunovSummary
	for w, eng := range engines {
		if errs[w] != nil {
			return nil, errs[w]
		}
		merged.Merge(eng.col)
		for _, u := range eng.order {
			st, ok := u.dev.ControllerStats()
			if !ok {
				continue
			}
			summary.Users++
			summary.AvgQMB += st.AvgQ
			summary.AvgDrift += st.AvgDrift
			if st.MaxQ > summary.MaxQMB {
				summary.MaxQMB = st.MaxQ
			}
		}
	}
	if summary.Users > 0 {
		summary.AvgQMB /= float64(summary.Users)
		summary.AvgDrift /= float64(summary.Users)
	}

	name := cfg.Strategy.String()
	if cfg.Strategy != StrategyRichNote {
		name = fmt.Sprintf("%s-L%d", name, cfg.FixedLevel)
	}
	return &RunResult{
		Config:    cfg,
		Name:      name,
		Report:    merged.Aggregate(),
		Collector: merged,
		Lyapunov:  summary,
		Elapsed:   time.Since(start),
	}, nil
}

// runWorker drives one engine over the users w, w+workers, ... for the
// whole trace: each round's pre-enriched arrivals go into the engine's
// inboxes, then the engine steps.
func (p *Pipeline) runWorker(cfg RunConfig, w, workers int) (*Engine, error) {
	eng := NewEngine(EngineConfig{
		Epoch:           p.Trace.Epoch,
		RoundLen:        p.Trace.RoundLen,
		Seed:            cfg.Seed,
		Enricher:        p.enricher,
		Faults:          cfg.Faults,
		Capacity:        cfg.Capacity,
		Transfer:        cfg.Transfer,
		PerRoundBudget:  cfg.PerRoundBudget,
		DropUndelivered: !cfg.QueuedBaselines,
		UseDominance:    cfg.UseDominance,
	})
	users := len(p.Trace.Users)
	for ui := w; ui < users; ui += workers {
		err := eng.AddUser(UserConfig{
			User:                  notif.UserID(ui),
			Strategy:              cfg.Strategy,
			FixedLevel:            cfg.FixedLevel,
			WeeklyBudgetBytes:     cfg.WeeklyBudgetBytes,
			V:                     cfg.V,
			KappaJ:                cfg.KappaJ,
			NetworkMatrix:         cfg.NetworkMatrix,
			StartState:            cfg.StartState,
			MaxDeliveriesPerRound: cfg.MaxDeliveriesPerRound,
			MaxAttempts:           cfg.MaxAttempts,
			DegradeOnFailure:      cfg.DegradeOnFailure,
		})
		if err != nil {
			return nil, err
		}
	}
	for round := 0; round < p.Trace.Rounds; round++ {
		for ui := w; ui < users; ui += workers {
			if batch := p.arrivals[ui][round]; len(batch) > 0 {
				if err := eng.Enqueue(notif.UserID(ui), batch); err != nil {
					return nil, err
				}
			}
		}
		if _, err := eng.Step(); err != nil {
			return nil, err
		}
	}
	// Parked devices hold controller stats as of the round they parked in;
	// settle them to the end of the trace.
	return eng, eng.Settle()
}
