package lint

import (
	"go/ast"
	"go/types"
)

// determinismPackages are the package path suffixes where wall-clock
// time, ambient randomness, and racy channel selection are forbidden:
// the simulation must replay bit-identically from a seed, so all time
// flows from the virtual clock and all randomness from internal/sim's
// forkable RNG (see internal/sim/rng.go).
var determinismPackages = []string{
	"internal/core",
	"internal/sched",
	"internal/sim",
	"internal/backbone",
	"internal/traffic",
}

// randConstructors are the math/rand functions that build explicit
// generators rather than consuming the ambient global source. They are
// still discouraged, but only the global top-level functions silently
// couple the simulation to process-wide state.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// wallClockWaits are the time-package functions that block on (or fire
// from) the process's wall clock. The backbone runs its cell shards on
// real worker goroutines, so a stray sleep or timer would couple
// barrier timing to host scheduling; all waiting must go through
// WaitGroup barriers whose ordering the coordinator pins.
var wallClockWaits = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Determinism forbids wall-clock and ambient-randomness escapes in the
// scheduling-critical packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now, wall-clock waits, global math/rand, and multi-case selects in core, sched, sim, backbone, traffic",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	scoped := false
	for _, suffix := range determinismPackages {
		if pathHasSuffix(pass.Pkg.Path, suffix) {
			scoped = true
			break
		}
	}
	if !scoped {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.Pkg.Info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					return true // methods are fine; only package-level funcs escape
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" {
						pass.Reportf(n.Pos(), "time.Now breaks simulation determinism; use the virtual clock (sim.Simulator.Now)")
					}
					if wallClockWaits[fn.Name()] {
						pass.Reportf(n.Pos(), "time.%s waits on the wall clock; simulation code must wait on virtual-clock events or pinned channel/WaitGroup barriers", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[fn.Name()] {
						pass.Reportf(n.Pos(), "global %s.%s uses ambient process randomness; derive a stream from internal/sim.RNG instead", fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.SelectStmt:
				if n.Body != nil && len(n.Body.List) > 1 {
					pass.Reportf(n.Pos(), "select with %d cases has nondeterministic case ordering; simulation code must use deterministic dispatch", len(n.Body.List))
				}
			}
			return true
		})
	}
}
