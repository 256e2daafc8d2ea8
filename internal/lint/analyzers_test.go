package lint_test

import (
	"testing"

	"github.com/richnote/richnote/internal/lint"
	"github.com/richnote/richnote/internal/lint/linttest"
)

// Each fixture seeds at least one violation per analyzer (positive
// cases) next to idiomatic code that must stay silent (negative cases).

func TestSeedRandFixture(t *testing.T) { linttest.Run(t, lint.SeedRand, "testdata/seedrand") }

func TestWallClockFixture(t *testing.T) { linttest.Run(t, lint.WallClock, "testdata/wallclock") }

func TestSpendCheckFixture(t *testing.T) { linttest.Run(t, lint.SpendCheck, "testdata/spendcheck") }

func TestConfinedFixture(t *testing.T) { linttest.Run(t, lint.Confined, "testdata/confined") }

func TestAtomicCheckFixture(t *testing.T) { linttest.Run(t, lint.AtomicCheck, "testdata/atomiccheck") }

func TestAllocFreeFixture(t *testing.T) { linttest.Run(t, lint.AllocFree, "testdata/allocfree") }

func TestUnitCheckFixture(t *testing.T) { linttest.Run(t, lint.UnitCheck, "testdata/unitcheck") }
