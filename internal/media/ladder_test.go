package media

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/richnote/richnote/internal/notif"
)

func TestAudioGeneratorCustomDurations(t *testing.T) {
	g, err := NewAudioGenerator(AudioConfig{
		Utility:          eq8,
		PreviewDurations: []float64{3, 15, 60},
		BitrateKbps:      96,
		MetadataBytes:    150,
	})
	if err != nil {
		t.Fatalf("NewAudioGenerator: %v", err)
	}
	ps, err := g.Generate(audioItem())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ps) != 4 {
		t.Fatalf("%d levels, want 4", len(ps))
	}
	if ps[0].Size != 150 {
		t.Fatalf("metadata size %d, want 150", ps[0].Size)
	}
	// 60 s at 96 kbps = 720,000 bytes.
	want := int64(150 + 720_000)
	if ps[3].Size != want {
		t.Fatalf("top level size %d, want %d", ps[3].Size, want)
	}
	if ps[3].BitrateKbps != 96 {
		t.Fatalf("bitrate %d, want 96", ps[3].BitrateKbps)
	}
}

func TestAudioGeneratorCustomMetaFraction(t *testing.T) {
	g, err := NewAudioGenerator(AudioConfig{Utility: eq8, MetaUtilityFraction: 0.2})
	if err != nil {
		t.Fatalf("NewAudioGenerator: %v", err)
	}
	ps, err := g.Generate(audioItem())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if math.Abs(ps[0].Utility-0.2) > 1e-9 {
		t.Fatalf("metadata utility %f, want 0.2", ps[0].Utility)
	}
	if math.Abs(ps[len(ps)-1].Utility-1) > 1e-9 {
		t.Fatalf("top utility %f, want 1", ps[len(ps)-1].Utility)
	}
}

func TestAudioGeneratorHandlesNegativeUtilityCurve(t *testing.T) {
	// A curve negative at short durations (like Eq. 8 below ~2 s) must be
	// shifted, not produce negative presentation utilities.
	curve := func(d float64) float64 { return -1 + 0.1*d }
	g, err := NewAudioGenerator(AudioConfig{
		Utility:          curve,
		PreviewDurations: []float64{1, 2, 4},
	})
	if err != nil {
		t.Fatalf("NewAudioGenerator: %v", err)
	}
	ps, err := g.Generate(audioItem())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rich := notif.RichItem{Item: audioItem(), ContentUtility: 1, Presentations: ps}
	if err := rich.Validate(); err != nil {
		t.Fatalf("negative-curve ladder invalid: %v", err)
	}
}

// Property: for any increasing duration set, the generated ladder
// satisfies the paper's invariants (validated by RichItem.Validate) and
// ends at utility 1.
func TestAudioLadderInvariantProperty(t *testing.T) {
	prop := func(raw [4]uint8) bool {
		durations := make([]float64, 0, 4)
		d := 0.0
		for _, r := range raw {
			d += 1 + float64(r%20)
			durations = append(durations, d)
		}
		g, err := NewAudioGenerator(AudioConfig{Utility: eq8, PreviewDurations: durations})
		if err != nil {
			return false
		}
		ps, err := g.Generate(audioItem())
		if err != nil {
			return false
		}
		rich := notif.RichItem{Item: audioItem(), ContentUtility: 0.5, Presentations: ps}
		if err := rich.Validate(); err != nil {
			return false
		}
		return math.Abs(ps[len(ps)-1].Utility-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ParetoPrune output never exceeds input size and always
// contains the maximum-utility point.
func TestParetoPruneProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		points := make([]Point, len(raw))
		maxU := -1.0
		for i, r := range raw {
			points[i] = Point{
				Name:    "p",
				Size:    int64(r%97) + 1,
				Utility: float64(r%31) / 7,
			}
			if points[i].Utility > maxU {
				maxU = points[i].Utility
			}
		}
		pruned := ParetoPrune(points)
		if len(pruned) > len(points) {
			return false
		}
		if maxU > 0 {
			found := false
			for _, p := range pruned {
				if p.Utility == maxU {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The generator computes its ladder once and every Generate hands out a
// copy: a caller scribbling on its slice must not reach the next caller,
// and the ladder does not depend on the item.
func TestAudioGeneratorReturnsPrivateCopies(t *testing.T) {
	g, err := NewAudioGenerator(AudioConfig{Utility: eq8})
	if err != nil {
		t.Fatalf("NewAudioGenerator: %v", err)
	}
	first, err := g.Generate(audioItem())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	want := append([]notif.Presentation(nil), first...)
	first[0].Utility = -99
	first[len(first)-1].Label = "scribbled"
	other := audioItem()
	other.ID, other.Meta.TrackID = 2, 0
	second, err := g.Generate(other)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(second) != len(want) {
		t.Fatalf("%d levels, want %d", len(second), len(want))
	}
	for i := range want {
		if second[i] != want[i] {
			t.Fatalf("level %d: %+v after a caller mutated its copy, want %+v", i+1, second[i], want[i])
		}
	}
}
