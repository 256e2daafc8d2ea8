package lint

import "go/ast"

// wallClockFuncs are the time functions that read or wait on the wall
// clock. time.Duration/time.Time arithmetic and constants are fine —
// virtual-time code manipulates durations constantly; it must not
// *sample* the clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// WallClock forbids wall-clock reads in the virtual-time packages. The
// scheduler's rounds, Lyapunov drift and energy replenishment all run
// on virtual round indices; a stray time.Now() makes replay and the
// byte-identical build guarantee silently false. Round/tick time must
// flow in as a parameter (sched.DeviceConfig.Epoch + RoundLen).
//
// internal/server is in scope on purpose: its shard loop runs virtual
// rounds, and its few deliberate wall-clock sites (self-tick ticker,
// round-latency telemetry, ingest timestamps) carry //lint:allow
// wallclock directives so every new read is an explicit decision.
//
// Test files are exempt: timeouts and latency assertions in tests
// legitimately wait on the real clock.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Sleep/Since and timer constructors in virtual-time " +
		"packages; round and tick time must be passed in as a parameter",
	Scope:        []string{"sched", "lyapunov", "mckp", "sim", "energy", "server", "cluster", "transport"},
	IncludeTests: false,
	Run:          runWallClock,
}

func runWallClock(p *Pass) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := p.pkgCall(file, call, "time")
			if !ok || !wallClockFuncs[name] {
				return true
			}
			p.Reportf(call.Pos(),
				"time.%s reads the wall clock inside a virtual-time package; pass round/tick time in as a parameter", name)
			return true
		})
	}
}
