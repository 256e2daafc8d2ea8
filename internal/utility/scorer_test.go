package utility

import (
	"sync"
	"testing"

	"github.com/richnote/richnote/internal/ml/forest"
	"github.com/richnote/richnote/internal/trace"
)

// TestForestScorerDeterministic: the same trained scorer must produce the
// same Uc on repeated calls (the enrichment cache depends on it).
func TestForestScorerDeterministic(t *testing.T) {
	tr := smallTrace(t)
	scorer, err := TrainForestScorer(tr, forest.Config{Trees: 15, Seed: 4})
	if err != nil {
		t.Fatalf("TrainForestScorer: %v", err)
	}
	n := &tr.Users[2].Notifications[0]
	first := scorer.Score(n)
	for i := 0; i < 10; i++ {
		if got := scorer.Score(n); got != first {
			t.Fatalf("score changed across calls: %f vs %f", got, first)
		}
	}
}

// TestForestScorerSerializationPreservesScores: a saved/loaded model must
// score identically — the offline-train/online-score deployment split.
func TestForestScorerSerializationPreservesScores(t *testing.T) {
	tr := smallTrace(t)
	scorer, err := TrainForestScorer(tr, forest.Config{Trees: 15, Seed: 4})
	if err != nil {
		t.Fatalf("TrainForestScorer: %v", err)
	}
	path := t.TempDir() + "/model.json"
	if err := scorer.Forest.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := forest.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	restored := &ForestScorer{Forest: loaded}
	for ui := 0; ui < 5; ui++ {
		for ni := range tr.Users[ui].Notifications {
			n := &tr.Users[ui].Notifications[ni]
			if scorer.Score(n) != restored.Score(n) {
				t.Fatalf("score mismatch after round trip (user %d item %d)", ui, ni)
			}
		}
	}
}

// TestScorersAgreeOnFeatureSpace: every scorer consumes the same feature
// extraction; verify the features are stable across repeated extraction.
func TestScorersAgreeOnFeatureSpace(t *testing.T) {
	tr := smallTrace(t)
	n := &tr.Users[0].Notifications[0]
	a := trace.Features(n)
	b := trace.Features(n)
	if len(a) != len(b) {
		t.Fatal("feature extraction not stable in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d differs across extractions", i)
		}
	}
}

// TestForestScorerBatchConcurrent: every shard's round loop calls
// ScoreBatch on the one shared scorer, so concurrent batches must not
// share scratch; each must equal Score element by element. Run with -race.
func TestForestScorerBatchConcurrent(t *testing.T) {
	tr := smallTrace(t)
	scorer, err := TrainForestScorer(tr, forest.Config{Trees: 15, Seed: 4})
	if err != nil {
		t.Fatalf("TrainForestScorer: %v", err)
	}
	const callers = 4
	batches := make([][]*trace.Notification, callers)
	for g := range batches {
		// Different lengths, so a shared row buffer would also be resized
		// under a concurrent reader.
		for ui := g; ui < len(tr.Users); ui += callers {
			for ni := range tr.Users[ui].Notifications {
				batches[g] = append(batches[g], &tr.Users[ui].Notifications[ni])
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(ns []*trace.Notification) {
			defer wg.Done()
			var out []float64
			for rep := 0; rep < 5; rep++ {
				out = scorer.ScoreBatch(ns, out)
				for i, n := range ns {
					if want := scorer.Score(n); out[i] != want {
						t.Errorf("batch score %d = %v, Score = %v", i, out[i], want)
						return
					}
				}
			}
		}(batches[g])
	}
	wg.Wait()
}
