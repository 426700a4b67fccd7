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
// blank compile-time assertions (var _ Iface = ...), error sentinels
// (var ErrX = errors.New(...)), and write-once tables built on first
// use (var t = sync.OnceValue(...) or sync.OnceValues(...)) — provided
// the sentinel or table variable is never reassigned.
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

	// sentinels and tables record the package vars allowed because they
	// are set once at init — error sentinels and sync.OnceValue tables —
	// so that reassignments can be flagged below.
	sentinels := make(map[types.Object]bool)
	tables := make(map[types.Object]bool)

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
				for i, name := range vs.Names {
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
					if len(vs.Values) == len(vs.Names) && isOnceValueCall(info, vs.Values[i]) {
						tables[obj] = true
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

	// Sentinels and tables are only allowed because they are write-once
	// at init; any later assignment reintroduces shared mutable state.
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
				switch obj := info.Uses[id]; {
				case sentinels[obj]:
					pass.Reportf(as.Pos(), "reassignment of error sentinel %s; sentinels must be write-once", id.Name)
				case tables[obj]:
					pass.Reportf(as.Pos(), "reassignment of sync.OnceValue table %s; tables must be write-once", id.Name)
				}
			}
			return true
		})
	}
}

// isOnceValueCall reports whether e calls sync.OnceValue or
// sync.OnceValues, with or without explicit type arguments.
func isOnceValueCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	return fn.Name() == "OnceValue" || fn.Name() == "OnceValues"
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
