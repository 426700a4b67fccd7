package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// globalStatePackages is the shard-safety scope: packages whose code
// runs concurrently on the backbone's worker pool, one kernel shard per
// cell. Package-level mutable state in any of them is a data race in
// waiting.
var globalStatePackages = []string{
	"internal/core",
	"internal/sched",
	"internal/sim",
	"internal/backbone",
}

// GlobalState forbids package-level mutable state in the packages on
// the sharding critical path. Allowed at package level: constants,
// blank compile-time assertions (var _ Iface = ...), and error
// sentinels (var ErrX = errors.New(...)) — provided the sentinel is
// never reassigned.
var GlobalState = &Analyzer{
	Name: "globalstate",
	Doc:  "forbid package-level mutable state and unsynchronized shared maps in shard-critical packages",
	Run:  runGlobalState,
}

func runGlobalState(pass *Pass) {
	if !inScope(pass.Pkg.Path, globalStatePackages) {
		return
	}
	info := pass.Pkg.Info

	// sentinels records the error-typed package vars declared in this
	// package so that reassignments can be flagged below.
	sentinels := make(map[types.Object]bool)

	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // compile-time interface assertion
					}
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					t := obj.Type()
					if isErrorType(t) {
						sentinels[obj] = true
						continue
					}
					switch t.Underlying().(type) {
					case *types.Map:
						pass.Reportf(name.Pos(), "package-level map %s is unsynchronized shared state; move it onto the Network/Simulator instance", name.Name)
					default:
						pass.Reportf(name.Pos(), "package-level var %s is mutable shared state; use a const or move it onto an instance", name.Name)
					}
				}
			}
		}
	}

	// A sentinel is only allowed because it is write-once at init; any
	// later assignment reintroduces shared mutable state.
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.Uses[id]; obj != nil && sentinels[obj] {
					pass.Reportf(as.Pos(), "reassignment of error sentinel %s; sentinels must be write-once", id.Name)
				}
			}
			return true
		})
	}
}

// inScope reports whether the package path ends with one of the scope
// suffixes.
func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}
