// Package utility assembles the combined notification utility of
// Section III-A: U(i, j) = Uc(i) x Up(i, j).
//
// Content utility Uc(i) comes from a ContentScorer. The production scorer
// wraps the trained Random Forest of Section V-A and converts the
// classifier confidence to a probability exactly as the paper prescribes:
//
//	Uc(i) = Pr(x_i = 1)      when the predicted class is "clicked"
//	Uc(i) = 1 − Pr(x_i = 0)  otherwise
//
// (For a binary classifier both branches equal the positive-class
// probability, which is what PredictProba returns.)
//
// Presentation utility Up(i, j) is embedded in the presentation ladder a
// media.Generator emits. The Enricher glues the two together, turning raw
// trace notifications into scheduler-ready rich items.
package utility

import (
	"errors"
	"fmt"

	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/ml/forest"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/trace"
)

// ContentScorer predicts Uc(i) in [0, 1] for a trace notification.
// Implementations must be safe for concurrent Score calls: the pipeline's
// enrichment phase shards users across worker goroutines that share one
// scorer, and so do the server's shards.
type ContentScorer interface {
	Score(n *trace.Notification) float64
}

// BatchScorer is the optional bulk interface a ContentScorer may
// implement: score a whole slice of notifications in one call, writing
// into out (grown as needed) and returning it truncated to len(ns). Every
// output must be bit-identical to calling Score element by element — the
// batch exists to amortize per-call costs (the forest's arena walk is
// tree-major, so cross-user batches stream each tree through the cache
// once), never to change results. Concurrent calls must be safe, as for
// Score. Callers fall back to a Score loop for scorers without it.
type BatchScorer interface {
	ScoreBatch(ns []*trace.Notification, out []float64) []float64
}

// ForestScorer scores with a trained Random Forest over the paper's
// feature space.
type ForestScorer struct {
	Forest *forest.Forest
}

var (
	_ ContentScorer = (*ForestScorer)(nil)
	_ BatchScorer   = (*ForestScorer)(nil)
)

// Score implements ContentScorer.
func (s *ForestScorer) Score(n *trace.Notification) float64 {
	return s.Forest.PredictProba(trace.Features(n))
}

// ScoreBatch implements BatchScorer over the forest's tree-major batch
// walk. Like Score it is safe for concurrent calls — every shard's round
// loop shares the one scorer — so the feature rows are the call's own.
func (s *ForestScorer) ScoreBatch(ns []*trace.Notification, out []float64) []float64 {
	rows := make([][]float64, len(ns))
	for i, n := range ns {
		rows[i] = trace.Features(n)
	}
	return s.Forest.PredictProbaBatch(rows, out)
}

// TrainForestScorer fits a Random Forest on the trace's click/hover labels
// and returns the scorer. This is the paper's full content-utility
// pipeline: trace -> features -> RF -> confidence -> Uc.
func TrainForestScorer(tr *trace.Trace, cfg forest.Config) (*ForestScorer, error) {
	features, labels := trace.Dataset(tr)
	if len(features) == 0 {
		return nil, errors.New("utility: empty trace")
	}
	f, err := forest.Train(features, labels, cfg)
	if err != nil {
		return nil, fmt.Errorf("utility: train forest: %w", err)
	}
	return &ForestScorer{Forest: f}, nil
}

// OracleScorer returns the latent ground-truth click probability; the
// upper-bound ablation for the content-utility model.
type OracleScorer struct{}

var _ ContentScorer = OracleScorer{}

// Score implements ContentScorer.
func (OracleScorer) Score(n *trace.Notification) float64 { return n.LatentP }

// ConstantScorer assigns every item the same content utility; used by
// tests and by baselines that ignore content relevance.
type ConstantScorer struct{ Value float64 }

var _ ContentScorer = ConstantScorer{}

// Score implements ContentScorer.
func (s ConstantScorer) Score(*trace.Notification) float64 { return s.Value }

// Enricher turns trace notifications into rich items: it scores content
// utility and generates the presentation ladder. An Enricher is safe for
// concurrent Enrich calls as long as its scorer and generator are; the
// scorers in this package and the generators in internal/media all are.
type Enricher struct {
	scorer    ContentScorer
	generator media.Generator
}

// NewEnricher validates and builds an enricher.
func NewEnricher(scorer ContentScorer, generator media.Generator) (*Enricher, error) {
	if scorer == nil {
		return nil, errors.New("utility: nil scorer")
	}
	if generator == nil {
		return nil, errors.New("utility: nil generator")
	}
	return &Enricher{scorer: scorer, generator: generator}, nil
}

// Scorer returns the enricher's content scorer, letting callers that
// batch-score (see BatchScorer) reuse the exact scorer EnrichScored
// expects the utilities to come from.
func (e *Enricher) Scorer() ContentScorer { return e.scorer }

// Enrich produces the scheduler-ready rich item for a trace notification.
func (e *Enricher) Enrich(n *trace.Notification) (notif.RichItem, error) {
	return e.EnrichScored(n, e.scorer.Score(n))
}

// EnrichScored is Enrich with the content utility already computed — the
// entry point for callers that scored a whole batch up front. The uc must
// come from this enricher's scorer for the result to match Enrich; it is
// clamped to [0, 1] exactly as Enrich clamps.
func (e *Enricher) EnrichScored(n *trace.Notification, uc float64) (notif.RichItem, error) {
	ps, err := e.generator.Generate(n.Item)
	if err != nil {
		return notif.RichItem{}, fmt.Errorf("utility: generate presentations: %w", err)
	}
	if uc < 0 {
		uc = 0
	}
	if uc > 1 {
		uc = 1
	}
	item := notif.RichItem{
		Item:           n.Item,
		ContentUtility: uc,
		Presentations:  ps,
		ArrivedRound:   n.Round,
	}
	if err := item.Validate(); err != nil {
		return notif.RichItem{}, fmt.Errorf("utility: %w", err)
	}
	return item, nil
}
