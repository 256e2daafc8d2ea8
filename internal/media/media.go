// Package media implements the presentation "generators" of Section III-B:
// application-specific components that, given a content item, produce its
// discrete presentation levels 1..k with strictly increasing sizes and
// monotone utilities. Level 1 is always metadata-only; higher levels attach
// progressively larger media samples.
//
// Three generators are provided: audio previews (the paper's Spotify
// evaluation), image thumbnail ladders and video preview ladders (to
// exercise generality). The audio size model follows Section V-C: at the
// Spotify default bitrate of 160 kbps a d-second preview occupies d x 20 KB
// in addition to ~200 bytes of metadata.
package media

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/richnote/richnote/internal/notif"
)

// DefaultMetadataBytes is the average notification metadata size (track,
// artist, album names and a URL), per the paper's Section V-C (from the
// Spotify measurements in its reference [2]).
const DefaultMetadataBytes = 200

// DefaultBitrateKbps is Spotify's default streaming bitrate.
const DefaultBitrateKbps = 160

// DefaultPreviewDurations are the preview lengths (seconds) of presentation
// levels 2..6 in the paper's evaluation.
var DefaultPreviewDurations = []float64{5, 10, 20, 30, 40}

// AudioSizeBytes returns the byte size of a d-second audio sample at the
// given bitrate. At 160 kbps this is d x 20 KB, matching the paper
// (no audio compression assumed).
func AudioSizeBytes(durationSec float64, bitrateKbps int) int64 {
	return int64(durationSec * float64(bitrateKbps) * 1000 / 8)
}

// UtilityFn maps a media-sample duration (seconds) to a raw utility score.
// The survey package produces these from fitted models; callers may also
// supply Equation 8 directly.
type UtilityFn func(durationSec float64) float64

// Generator produces the presentation ladder for a content item.
type Generator interface {
	// Generate returns presentations at levels 1..k for the item. The
	// returned slice must satisfy notif.RichItem.Validate invariants.
	Generate(item notif.Item) ([]notif.Presentation, error)
}

// Errors returned by generator constructors.
var (
	ErrNoDurations     = errors.New("media: no preview durations")
	ErrBadDurations    = errors.New("media: durations must be positive and strictly increasing")
	ErrNilUtility      = errors.New("media: nil utility function")
	ErrBadMetaFraction = errors.New("media: metadata utility fraction outside (0, 1)")
	ErrKindMismatch    = errors.New("media: generator does not support content kind")
)

// AudioGenerator builds the paper's six-level audio ladder: metadata only,
// then metadata plus previews of increasing duration. The ladder depends on
// the configuration alone, so it is computed once and every item gets a
// copy.
type AudioGenerator struct {
	ladder []notif.Presentation
}

// AudioConfig configures an AudioGenerator.
type AudioConfig struct {
	// MetadataBytes defaults to DefaultMetadataBytes.
	MetadataBytes int64
	// BitrateKbps defaults to DefaultBitrateKbps.
	BitrateKbps int
	// PreviewDurations defaults to DefaultPreviewDurations; must be
	// strictly increasing and positive.
	PreviewDurations []float64
	// Utility maps preview duration to raw utility. Required.
	Utility UtilityFn
	// MetaUtilityFraction is the share of the richest level's utility
	// attributed to metadata alone (the paper uses ~1%). Defaults to 0.01.
	MetaUtilityFraction float64
}

// NewAudioGenerator validates the configuration and returns the generator.
func NewAudioGenerator(cfg AudioConfig) (*AudioGenerator, error) {
	if cfg.Utility == nil {
		return nil, ErrNilUtility
	}
	if cfg.MetadataBytes <= 0 {
		cfg.MetadataBytes = DefaultMetadataBytes
	}
	if cfg.BitrateKbps <= 0 {
		cfg.BitrateKbps = DefaultBitrateKbps
	}
	if len(cfg.PreviewDurations) == 0 {
		cfg.PreviewDurations = DefaultPreviewDurations
	}
	for i, d := range cfg.PreviewDurations {
		if d <= 0 || (i > 0 && d <= cfg.PreviewDurations[i-1]) {
			return nil, fmt.Errorf("%w: %v", ErrBadDurations, cfg.PreviewDurations)
		}
	}
	if cfg.MetaUtilityFraction == 0 {
		cfg.MetaUtilityFraction = 0.01
	}
	if cfg.MetaUtilityFraction <= 0 || cfg.MetaUtilityFraction >= 1 {
		return nil, fmt.Errorf("%w: %f", ErrBadMetaFraction, cfg.MetaUtilityFraction)
	}
	return &AudioGenerator{ladder: audioLadder(cfg)}, nil
}

var _ Generator = (*AudioGenerator)(nil)

// Generate implements Generator; the caller owns the returned slice.
func (g *AudioGenerator) Generate(item notif.Item) ([]notif.Presentation, error) {
	if item.Kind != notif.KindAudio {
		return nil, fmt.Errorf("%w: %s", ErrKindMismatch, item.Kind)
	}
	return slices.Clone(g.ladder), nil
}

// audioLadder builds the ladder of a validated configuration.
// Presentation utilities are normalized so the richest level has utility
// 1; the metadata-only level receives the configured metadata fraction,
// and preview levels split the remaining share proportionally to the
// (shifted) utility function, preserving monotonicity.
func audioLadder(cfg AudioConfig) []notif.Presentation {
	durations := cfg.PreviewDurations

	// Raw utility values, shifted so the smallest preview is positive.
	raw := make([]float64, len(durations))
	minRaw := math.Inf(1)
	for i, d := range durations {
		raw[i] = cfg.Utility(d)
		if raw[i] < minRaw {
			minRaw = raw[i]
		}
	}
	shift := 0.0
	if minRaw <= 0 {
		shift = -minRaw + 1e-6
	}
	maxRaw := raw[len(raw)-1] + shift

	out := make([]notif.Presentation, 0, len(durations)+1)
	out = append(out, notif.Presentation{
		Level:   1,
		Size:    cfg.MetadataBytes,
		Utility: cfg.MetaUtilityFraction,
		Label:   "meta",
	})
	for i, d := range durations {
		up := cfg.MetaUtilityFraction + (1-cfg.MetaUtilityFraction)*((raw[i]+shift)/maxRaw)
		if up > 1 {
			up = 1
		}
		prev := out[len(out)-1].Utility
		if up < prev {
			up = prev // enforce monotonicity against pathological fns
		}
		out = append(out, notif.Presentation{
			Level:       i + 2,
			Size:        cfg.MetadataBytes + AudioSizeBytes(d, cfg.BitrateKbps),
			Utility:     up,
			DurationSec: d,
			BitrateKbps: cfg.BitrateKbps,
			Label:       fmt.Sprintf("meta+%.0fs", d),
		})
	}
	return out
}

// ImageGenerator produces a thumbnail ladder for image content: metadata,
// then thumbnails of increasing resolution, then the full image.
type ImageGenerator struct {
	// Widths of the thumbnail ladder in pixels.
	Widths []int
	// BytesPerPixel approximates compressed size (JPEG ~ 0.25 B/px).
	BytesPerPixel float64
	// FullBytes is the size of the original image.
	FullBytes int64
}

var _ Generator = (*ImageGenerator)(nil)

// NewImageGenerator returns a ladder with sensible defaults.
func NewImageGenerator() *ImageGenerator {
	return &ImageGenerator{
		Widths:        []int{160, 320, 640},
		BytesPerPixel: 0.25,
		FullBytes:     2_000_000,
	}
}

// Generate implements Generator.
func (g *ImageGenerator) Generate(item notif.Item) ([]notif.Presentation, error) {
	if item.Kind != notif.KindImage {
		return nil, fmt.Errorf("%w: %s", ErrKindMismatch, item.Kind)
	}
	out := []notif.Presentation{{Level: 1, Size: DefaultMetadataBytes, Utility: 0.02, Label: "meta"}}
	// Utility grows with log of pixel count, normalized at the full image.
	maxScore := math.Log1p(float64(g.FullBytes))
	for i, w := range g.Widths {
		px := float64(w) * float64(w) * 3 / 4 // 4:3 aspect
		size := DefaultMetadataBytes + int64(px*g.BytesPerPixel)
		score := math.Log1p(float64(size)) / maxScore
		out = append(out, notif.Presentation{
			Level:   i + 2,
			Size:    size,
			Utility: clamp01(0.02 + 0.98*score),
			Label:   fmt.Sprintf("thumb%dw", w),
		})
	}
	out = append(out, notif.Presentation{
		Level:   len(g.Widths) + 2,
		Size:    DefaultMetadataBytes + g.FullBytes,
		Utility: 1,
		Label:   "full",
	})
	return out, nil
}

// VideoGenerator produces a preview ladder for video content across
// duration and vertical-resolution rungs.
type VideoGenerator struct {
	// Rungs are (duration sec, kbps) pairs in increasing size order.
	Rungs []VideoRung
}

// VideoRung is one video preview configuration.
type VideoRung struct {
	DurationSec float64
	BitrateKbps int
	Label       string
}

var _ Generator = (*VideoGenerator)(nil)

// NewVideoGenerator returns a default four-rung ladder.
func NewVideoGenerator() *VideoGenerator {
	return &VideoGenerator{Rungs: []VideoRung{
		{5, 400, "5s@240p"},
		{10, 400, "10s@240p"},
		{10, 1200, "10s@480p"},
		{30, 1200, "30s@480p"},
	}}
}

// Generate implements Generator.
func (g *VideoGenerator) Generate(item notif.Item) ([]notif.Presentation, error) {
	if item.Kind != notif.KindVideo {
		return nil, fmt.Errorf("%w: %s", ErrKindMismatch, item.Kind)
	}
	out := []notif.Presentation{{Level: 1, Size: DefaultMetadataBytes, Utility: 0.02, Label: "meta"}}
	if len(g.Rungs) == 0 {
		return out, nil
	}
	last := g.Rungs[len(g.Rungs)-1]
	maxScore := math.Sqrt(last.DurationSec) * math.Log1p(float64(last.BitrateKbps))
	prevSize := out[0].Size
	prevUtil := out[0].Utility
	for i, r := range g.Rungs {
		size := DefaultMetadataBytes + int64(r.DurationSec*float64(r.BitrateKbps)*1000/8)
		score := math.Sqrt(r.DurationSec) * math.Log1p(float64(r.BitrateKbps)) / maxScore
		util := clamp01(0.02 + 0.98*score)
		if size <= prevSize || util < prevUtil {
			return nil, fmt.Errorf("media: video rung %d (%s) breaks ladder monotonicity", i, r.Label)
		}
		out = append(out, notif.Presentation{
			Level:       i + 2,
			Size:        size,
			Utility:     util,
			DurationSec: r.DurationSec,
			BitrateKbps: r.BitrateKbps,
			Label:       r.Label,
		})
		prevSize, prevUtil = size, util
	}
	return out, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ForKind returns a default generator for the content kind using the given
// audio utility function for audio content.
func ForKind(kind notif.ContentKind, audioUtility UtilityFn) (Generator, error) {
	switch kind {
	case notif.KindAudio:
		return NewAudioGenerator(AudioConfig{Utility: audioUtility})
	case notif.KindImage:
		return NewImageGenerator(), nil
	case notif.KindVideo:
		return NewVideoGenerator(), nil
	default:
		return nil, fmt.Errorf("%w: %s", ErrKindMismatch, kind)
	}
}
