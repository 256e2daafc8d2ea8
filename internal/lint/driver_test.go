package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/richnote/richnote/internal/lint"
)

const smokeGoMod = "module lintsmoke\n\ngo 1.22\n"

// smokeViolations is a package in the sim scope that trips every
// analyzer in the suite exactly once.
const smokeViolations = `package sim

import (
	"math/rand"
	"time"
)

type battery struct{ level float64 }

func (b *battery) Spend(j float64) float64 {
	b.level -= j
	return j
}

type shard struct {
	round  int    // richnote:confined(shard)
	legacy uint64 // richnote:atomic
}

// richnote:allocfree
func hot(n int) []byte {
	return make([]byte, n)
}

func Violate(s *shard, b *battery, sizeBytes int64, quotaMB float64) float64 {
	rand.Seed(7)
	start := time.Now()
	b.Spend(2)
	s.round++
	s.legacy++
	_ = start
	return float64(sizeBytes) + quotaMB
}
`

// smokeAllowed is the same package with every violation either fixed
// or explicitly suppressed, and must lint clean.
const smokeAllowed = `package sim

import (
	"math/rand"
	"sync/atomic"
	"time"
)

type battery struct{ level float64 }

func (b *battery) Spend(j float64) float64 {
	b.level -= j
	return j
}

type shard struct {
	round  int    // richnote:confined(shard)
	legacy uint64 // richnote:atomic
}

func (s *shard) bump() { s.round++ }

func touch(s *shard) { atomic.AddUint64(&s.legacy, 1) }

// richnote:allocfree
func hot(buf []byte, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

const bytesPerMB = 1 << 20

func Allowed(s *shard, b *battery, sizeBytes int64, quotaMB float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	//lint:allow wallclock latency telemetry, not scheduling time
	start := time.Now()
	spent := b.Spend(rng.Float64())
	s.bump()
	touch(s)
	_ = start
	return float64(sizeBytes)/bytesPerMB + quotaMB + spent
}
`

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDriverFlagsSeededViolations is the reintroduction guard the CI
// step relies on: a tree with one violation per analyzer must produce a
// nonzero finding count, one per analyzer.
func TestDriverFlagsSeededViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     smokeGoMod,
		"sim/bad.go": smokeViolations,
	})
	findings, err := lint.Run(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, f := range findings {
		got[f.Analyzer]++
	}
	for _, a := range lint.All() {
		if got[a.Name] != 1 {
			t.Errorf("analyzer %s: %d findings, want 1\nall findings:\n%s",
				a.Name, got[a.Name], render(findings))
		}
	}
	if len(findings) != len(lint.All()) {
		t.Errorf("total findings = %d, want %d:\n%s", len(findings), len(lint.All()), render(findings))
	}
}

// TestDriverHonorsAllowDirectives verifies the suppression contract:
// fixed code plus a well-formed //lint:allow line lints clean.
func TestDriverHonorsAllowDirectives(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":         smokeGoMod,
		"sim/allowed.go": smokeAllowed,
	})
	findings, err := lint.Run(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("allowed module produced findings:\n%s", render(findings))
	}
}

// TestDriverReportsMalformedAllow: a directive without a reason must
// not suppress anything and is itself a finding.
func TestDriverReportsMalformedAllow(t *testing.T) {
	src := strings.Replace(smokeAllowed,
		"//lint:allow wallclock latency telemetry, not scheduling time",
		"//lint:allow wallclock", 1)
	dir := writeModule(t, map[string]string{
		"go.mod":         smokeGoMod,
		"sim/allowed.go": src,
	})
	findings, err := lint.Run(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	var sawMalformed, sawWallclock bool
	for _, f := range findings {
		switch f.Analyzer {
		case "lint":
			sawMalformed = true
		case "wallclock":
			sawWallclock = true
		}
	}
	if !sawMalformed || !sawWallclock {
		t.Errorf("want a malformed-directive finding and an unsuppressed wallclock finding, got:\n%s", render(findings))
	}
}

// TestDriverScopeGating: the same violations outside any scoped path
// only trip the unscoped analyzers.
func TestDriverScopeGating(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":      smokeGoMod,
		"util/bad.go": strings.Replace(smokeViolations, "package sim", "package util", 1),
	})
	findings, err := lint.Run(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == "seedrand" || f.Analyzer == "wallclock" {
			t.Errorf("scoped analyzer %s fired outside its scope: %s", f.Analyzer, f)
		}
	}
	got := make(map[string]bool)
	for _, f := range findings {
		got[f.Analyzer] = true
	}
	for _, name := range []string{"spendcheck", "confined", "atomiccheck", "allocfree", "unitcheck"} {
		if !got[name] {
			t.Errorf("unscoped analyzer %s did not fire:\n%s", name, render(findings))
		}
	}
}

// TestSeedRandScopesDeviceRandomness: energy and core build every
// device's random streams, so ambient randomness there is flagged like
// anywhere else in the deterministic set.
func TestSeedRandScopesDeviceRandomness(t *testing.T) {
	const jitter = `package %s

import "math/rand"

func Jitter() float64 { return rand.Float64() }
`
	dir := writeModule(t, map[string]string{
		"go.mod":           smokeGoMod,
		"energy/jitter.go": fmt.Sprintf(jitter, "energy"),
		"core/jitter.go":   fmt.Sprintf(jitter, "core"),
	})
	findings, err := lint.Run(dir, []string{"./..."}, []*lint.Analyzer{lint.SeedRand})
	if err != nil {
		t.Fatal(err)
	}
	flagged := make(map[string]bool)
	for _, f := range findings {
		if f.Analyzer == "seedrand" && strings.Contains(f.Message, "global math/rand.Float64") {
			flagged[filepath.Base(filepath.Dir(f.Pos.Filename))] = true
		}
	}
	for _, pkg := range []string{"energy", "core"} {
		if !flagged[pkg] {
			t.Errorf("global rand.Float64 in %s not flagged:\n%s", pkg, render(findings))
		}
	}
}

// TestDriverContinuesPastTypecheckFailure: a package that does not
// type-check becomes a finding of its own, and analysis of the healthy
// packages still runs (satellite: driver robustness).
func TestDriverContinuesPastTypecheckFailure(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":        smokeGoMod,
		"broken/bad.go": "package broken\n\nfunc f() int { return undefinedSymbol }\n",
		"sim/bad.go":    smokeViolations,
	})
	findings, err := lint.Run(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	var sawTypeFailure, sawSeedrand bool
	for _, f := range findings {
		if f.Analyzer == "lint" && strings.Contains(f.Message, "does not type-check") {
			sawTypeFailure = true
		}
		if f.Analyzer == "seedrand" {
			sawSeedrand = true
		}
	}
	if !sawTypeFailure {
		t.Errorf("no type-check failure finding for the broken package:\n%s", render(findings))
	}
	if !sawSeedrand {
		t.Errorf("healthy package was not analyzed after the type-check failure:\n%s", render(findings))
	}
}

func render(findings []lint.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString("  " + f.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}
