package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the whole-program analysis substrate (DESIGN.md §8): a
// module-wide call graph over every type-checked package plus a
// reachability query API. Per-package analyzers see one package at a
// time; program analyzers (Analyzer.RunProgram) see a Program and can
// follow a call three packages deep — which is what the zero-alloc
// hot-path and trace-exhaustiveness contracts need.

// dynamicInterfaceNames are the interfaces whose dynamic dispatch the
// call graph expands: a call through one of these adds an edge to every
// module method implementing it. They are the pluggable seams the
// simulation actually dispatches through on analyzed paths — the
// tracing hook, the channel error models, the reverse-slot scheduling
// policy, and the traffic size distributions. (Policy/ChannelModel are
// reserved names for the ROADMAP item 3 policy interface.)
var dynamicInterfaceNames = map[string]bool{
	"Tracer":           true,
	"ErrorModel":       true,
	"ReverseScheduler": true,
	"SizeDist":         true,
	"Policy":           true,
	"ChannelModel":     true,
}

// posInterval is a half-open [lo, hi) source range.
type posInterval struct{ lo, hi token.Pos }

func (iv posInterval) contains(p token.Pos) bool { return p >= iv.lo && p < iv.hi }

// CallEdge is one resolved call from a function body.
type CallEdge struct {
	// Callee is the target function.
	Callee *FuncNode
	// Pos is the call site.
	Pos token.Pos
	// Gated means the call only executes when tracing is enabled (it
	// sits in a trace-gated region, see gatedIntervals); gated edges are
	// excluded from hot-path reachability.
	Gated bool
	// Dynamic means the edge came from interface-method expansion rather
	// than a static call.
	Dynamic bool
}

// FuncNode is one declared function or method in the program.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the resolved outgoing edges, in source order.
	Calls []CallEdge

	gated     []posInterval // trace-gated regions of the body
	errReturn []posInterval // final (error) operands of error returns
}

// String renders a short human name like "core.Network.trace".
func (n *FuncNode) String() string {
	recv := receiverTypeName(n.Decl)
	if recv == "" {
		return n.Pkg.Types.Name() + "." + n.Obj.Name()
	}
	return n.Pkg.Types.Name() + "." + recv + "." + n.Obj.Name()
}

// TraceGated reports whether pos lies in a trace-gated region of the
// function: a branch that only runs when a tracer is attached. The
// steady-state allocation contract is measured with tracing disabled
// (the AllocsPerRun guards), so gated code is off the audited hot path.
func (n *FuncNode) TraceGated(pos token.Pos) bool {
	for _, iv := range n.gated {
		if iv.contains(pos) {
			return true
		}
	}
	return false
}

// InErrorReturn reports whether pos lies inside the error operand of a
// return statement whose function returns an error: constructing the
// error for a failed-validation exit is not steady-state work.
func (n *FuncNode) InErrorReturn(pos token.Pos) bool {
	for _, iv := range n.errReturn {
		if iv.contains(pos) {
			return true
		}
	}
	return false
}

// Program is the whole-program view over a loaded package universe.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	funcs map[*types.Func]*FuncNode
	nodes []*FuncNode // declaration order across packages
}

// NewProgram indexes every function declaration in pkgs and builds the
// call graph: static calls, calls through function literals (a literal
// belongs to its enclosing declaration), and dynamic dispatch through
// the dynamicInterfaceNames method sets.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	p := &Program{Fset: fset, Pkgs: pkgs, funcs: make(map[*types.Func]*FuncNode)}
	for _, pkg := range pkgs {
		if pkg.Info == nil || pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				p.funcs[obj] = node
				p.nodes = append(p.nodes, node)
			}
		}
	}
	impls := p.dynamicMethodTable()
	for _, node := range p.nodes {
		p.analyzeBody(node, impls)
	}
	return p
}

// Nodes returns every indexed function in deterministic (package load,
// then declaration) order.
func (p *Program) Nodes() []*FuncNode { return p.nodes }

// Node resolves a *types.Func to its node, or nil for functions without
// bodies in the loaded universe.
func (p *Program) Node(fn *types.Func) *FuncNode { return p.funcs[fn] }

// PackageBySuffix finds the loaded package whose import path matches
// suffix (module tree or fixture-relative), or nil.
func (p *Program) PackageBySuffix(suffix string) *Package {
	for _, pkg := range p.Pkgs {
		if pathHasSuffix(pkg.Path, suffix) {
			return pkg
		}
	}
	return nil
}

// FuncNode resolves a function by package path suffix, receiver type
// name ("" for plain functions), and name. Returns nil when absent —
// callers treat missing roots as "not built yet" rather than an error.
func (p *Program) FuncNode(pkgSuffix, recv, name string) *FuncNode {
	for _, node := range p.nodes {
		if node.Obj.Name() != name || !pathHasSuffix(node.Pkg.Path, pkgSuffix) {
			continue
		}
		if receiverTypeName(node.Decl) == recv {
			return node
		}
	}
	return nil
}

// ReachableFrom walks the call graph from roots (in order), skipping
// trace-gated edges, and returns for every reachable node the first
// root that reaches it. Iteration is deterministic: roots in the given
// order, edges in source order.
func (p *Program) ReachableFrom(roots []*FuncNode) map[*FuncNode]*FuncNode {
	owner := make(map[*FuncNode]*FuncNode)
	for _, root := range roots {
		if root == nil {
			continue
		}
		if _, seen := owner[root]; seen {
			continue
		}
		queue := []*FuncNode{root}
		owner[root] = root
		for len(queue) > 0 {
			node := queue[0]
			queue = queue[1:]
			for _, e := range node.Calls {
				if e.Gated {
					continue
				}
				if _, seen := owner[e.Callee]; seen {
					continue
				}
				owner[e.Callee] = root
				queue = append(queue, e.Callee)
			}
		}
	}
	return owner
}

// dynamicMethodTable maps each interface method of the dynamic
// interfaces to the module methods implementing it.
func (p *Program) dynamicMethodTable() map[*types.Func][]*FuncNode {
	var ifaces []*types.Interface
	for _, pkg := range p.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if !dynamicInterfaceNames[name] {
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			ifaces = append(ifaces, iface)
		}
	}
	out := make(map[*types.Func][]*FuncNode)
	if len(ifaces) == 0 {
		return out
	}
	for _, pkg := range p.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for _, iface := range ifaces {
				var recv types.Type
				switch {
				case types.Implements(named, iface):
					recv = named
				case types.Implements(ptr, iface):
					recv = ptr
				default:
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
					impl, ok := obj.(*types.Func)
					if !ok {
						continue
					}
					node := p.funcs[impl]
					if node == nil {
						continue
					}
					seen := false
					for _, existing := range out[m] {
						if existing == node {
							seen = true
							break
						}
					}
					if !seen {
						out[m] = append(out[m], node)
					}
				}
			}
		}
	}
	return out
}

// analyzeBody computes a node's gated regions, error-return regions,
// and outgoing call edges.
func (p *Program) analyzeBody(node *FuncNode, impls map[*types.Func][]*FuncNode) {
	info := node.Pkg.Info
	node.gated = gatedIntervals(node.Decl.Body, info)
	node.errReturn = errorReturnIntervals(node.Decl, info)

	ast.Inspect(node.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee *types.Func
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callee, _ = info.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			callee, _ = info.Uses[fun.Sel].(*types.Func)
		}
		if callee == nil {
			return true
		}
		gated := node.TraceGated(call.Pos())
		if target := p.funcs[callee]; target != nil {
			node.Calls = append(node.Calls, CallEdge{Callee: target, Pos: call.Pos(), Gated: gated})
			return true
		}
		// Interface method: expand through the dynamic method table.
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			for _, target := range impls[callee] {
				node.Calls = append(node.Calls, CallEdge{Callee: target, Pos: call.Pos(), Gated: gated, Dynamic: true})
			}
		}
		return true
	})
}

// gatedIntervals finds the trace-gated regions of a function body. Two
// shapes are recognized, both anchored on the tracing seam:
//
//	if x.tracing() { ... }        // body gated
//	if t != nil { ... }           // body gated (t of a Tracer type)
//	if t == nil { return }        // statements after the guard gated
//	if !x.tracing() { return }    // statements after the guard gated
//
// A nil check on any other seam (a channel model, a scheduling policy)
// gates nothing: those run with tracing off, so their implementations
// stay under the zero-alloc contract.
func gatedIntervals(body *ast.BlockStmt, info *types.Info) []posInterval {
	var out []posInterval
	var scanList func(list []ast.Stmt)
	scanList = func(list []ast.Stmt) {
		for i, stmt := range list {
			ifStmt, ok := stmt.(*ast.IfStmt)
			if !ok {
				continue
			}
			switch {
			case tracingEnabledCond(ifStmt.Cond, info):
				out = append(out, posInterval{ifStmt.Body.Pos(), ifStmt.Body.End()})
			case tracingDisabledCond(ifStmt.Cond, info) && terminates(ifStmt.Body):
				if i+1 < len(list) {
					out = append(out, posInterval{list[i+1].Pos(), list[len(list)-1].End()})
				}
			}
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch n := x.(type) {
		case *ast.BlockStmt:
			scanList(n.List)
		case *ast.CaseClause:
			scanList(n.Body)
		case *ast.CommClause:
			scanList(n.Body)
		}
		return true
	})
	return out
}

// tracingEnabledCond matches `x.tracing()` and `t != nil` for t of a
// Tracer type.
func tracingEnabledCond(cond ast.Expr, info *types.Info) bool {
	cond = ast.Unparen(cond)
	if call, ok := cond.(*ast.CallExpr); ok {
		return isTracingCall(call, info)
	}
	if bin, ok := cond.(*ast.BinaryExpr); ok && bin.Op == token.NEQ {
		return tracerNilCheck(bin, info)
	}
	return false
}

// tracingDisabledCond matches `!x.tracing()` and `t == nil`.
func tracingDisabledCond(cond ast.Expr, info *types.Info) bool {
	cond = ast.Unparen(cond)
	if un, ok := cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
		if call, ok := ast.Unparen(un.X).(*ast.CallExpr); ok {
			return isTracingCall(call, info)
		}
		return false
	}
	if bin, ok := cond.(*ast.BinaryExpr); ok && bin.Op == token.EQL {
		return tracerNilCheck(bin, info)
	}
	return false
}

// isTracingCall matches a call to a nullary method named "tracing".
func isTracingCall(call *ast.CallExpr, info *types.Info) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "tracing" || len(call.Args) != 0 {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil
}

// tracerNilCheck matches `expr <op> nil` where expr's type is the
// Tracer seam interface.
func tracerNilCheck(bin *ast.BinaryExpr, info *types.Info) bool {
	expr := bin.X
	other := bin.Y
	if isNilIdent(other, info) {
		// expr <op> nil
	} else if isNilIdent(expr, info) {
		expr = bin.Y
	} else {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || !types.IsInterface(named) {
		return false
	}
	return named.Obj().Name() == "Tracer"
}

func isNilIdent(e ast.Expr, info *types.Info) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// terminates reports whether a block always exits the function (its
// last statement is a return or a panic call).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// errorReturnIntervals collects, for every return statement of every
// function (declaration and literals) whose final result is an error,
// the source range of the final returned operand.
func errorReturnIntervals(decl *ast.FuncDecl, info *types.Info) []posInterval {
	var out []posInterval
	errType := types.Universe.Lookup("error").Type()

	// funcStack tracks whether the innermost function returns an error.
	var collect func(body *ast.BlockStmt, returnsErr bool)
	collect = func(body *ast.BlockStmt, returnsErr bool) {
		ast.Inspect(body, func(x ast.Node) bool {
			switch n := x.(type) {
			case *ast.FuncLit:
				lit := false
				if sig, ok := info.Types[n].Type.(*types.Signature); ok {
					lit = finalResultIsError(sig, errType)
				}
				collect(n.Body, lit)
				return false
			case *ast.ReturnStmt:
				if returnsErr && len(n.Results) > 0 {
					last := n.Results[len(n.Results)-1]
					out = append(out, posInterval{last.Pos(), last.End()})
				}
			}
			return true
		})
	}
	returnsErr := false
	if obj, ok := info.Defs[decl.Name].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok {
			returnsErr = finalResultIsError(sig, errType)
		}
	}
	collect(decl.Body, returnsErr)
	return out
}

func finalResultIsError(sig *types.Signature, errType types.Type) bool {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), errType)
}
