package lint

import "go/ast"

// randImports are the package paths whose ambient top-level state the
// analyzer polices. math/rand/v2 has no Seed, but its top-level
// functions draw from an unseedable global and are equally forbidden.
var randImports = []string{"math/rand", "math/rand/v2"}

// seedRandGlobals are the top-level math/rand (and /v2) functions that
// read the shared package-level source.
var seedRandGlobals = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

// SeedRand forbids ambient randomness in the deterministic packages:
// pipeline builds must be byte-identical at any worker count and shards
// must never share RNG state, so every random draw has to come from a
// seed-derived generator — a device's sim.Stream (see
// network.NewModelSeeded) or, for bulk generation, a *rand.Rand from
// sim.NewRNG. energy and core are in scope because they build device
// randomness. Calls resolve through the type checker, so a method named
// Intn on an injected generator is never confused with the package-level
// function.
var SeedRand = &Analyzer{
	Name: "seedrand",
	Doc: "forbid global math/rand functions, rand.Seed and time-derived RNG " +
		"sources in deterministic packages; randomness must come from a " +
		"seed-derived sim.Stream (see network.NewModelSeeded) or a *rand.Rand " +
		"from sim.NewRNG",
	Scope:        []string{"catalog", "trace", "network", "energy", "core", "ml", "sim", "server"},
	IncludeTests: true,
	Run:          runSeedRand,
}

func runSeedRand(p *Pass) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := p.pkgCall(file, call, randImports...)
			if !ok {
				return true
			}
			switch {
			case name == "Seed":
				p.Reportf(call.Pos(),
					"rand.Seed mutates the process-wide source; draw from a sim.Stream keyed by a configured seed instead (see network.NewModelSeeded)")
			case seedRandGlobals[name]:
				p.Reportf(call.Pos(),
					"global math/rand.%s draws from the shared ambient source and is nondeterministic under concurrency; draw from a seed-keyed sim.Stream (see network.NewModelSeeded)", name)
			case name == "NewSource" || name == "NewPCG" || name == "NewChaCha8":
				if tn, ok := p.timeDerived(file, call.Args); ok {
					p.Reportf(call.Pos(),
						"RNG source seeded from time.%s is irreproducible; derive the seed from configuration", tn)
				}
			case name == "New":
				// rand.New(rand.NewSource(...)) is handled by the
				// NewSource case above; only flag time leaking into New
				// through some other construction.
				if p.hasNestedSourceCtor(file, call.Args) {
					return true
				}
				if tn, ok := p.timeDerived(file, call.Args); ok {
					p.Reportf(call.Pos(),
						"RNG seeded from time.%s is irreproducible; derive the seed from configuration", tn)
				}
			}
			return true
		})
	}
}

// timeDerived reports whether any expression in args references the
// time package (time.Now().UnixNano() and friends), returning the
// selected name.
func (p *Pass) timeDerived(f *ast.File, args []ast.Expr) (string, bool) {
	var name string
	for _, arg := range args {
		ast.Inspect(arg, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if path, ok := p.pkgNameOf(f, id); ok && path == "time" && name == "" {
				name = sel.Sel.Name
			}
			return true
		})
	}
	return name, name != ""
}

// hasNestedSourceCtor reports whether args contain a rand source
// constructor call (which the NewSource/NewPCG case already checks).
func (p *Pass) hasNestedSourceCtor(f *ast.File, args []ast.Expr) bool {
	found := false
	for _, arg := range args {
		ast.Inspect(arg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := p.pkgCall(f, call, randImports...); ok {
				if name == "NewSource" || name == "NewPCG" || name == "NewChaCha8" {
					found = true
				}
			}
			return true
		})
	}
	return found
}
