package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc statically mirrors the AllocsPerRun guards: it flags
// allocation-inducing constructs in any function reachable — over the
// module-wide call graph, including dynamic dispatch through the
// tracing/channel/policy seams — from the steady-state roots below.
// Trace-gated code (branches that only run when a tracer is attached)
// and error-construction returns are exempt: the zero-alloc contract is
// measured with tracing off and valid inputs.
var HotPathAlloc = &Analyzer{
	Name:       "hotpathalloc",
	Doc:        "forbid allocation-inducing constructs in functions reachable from the zero-alloc hot-path roots",
	RunProgram: runHotPathAlloc,
}

// hotRoot names one zero-alloc entry point: package path suffix,
// receiver type name ("" for plain functions), function name.
type hotRoot struct{ pkg, recv, name string }

// hotRoots is the steady-state contract surface. Each present root has
// a matching AllocsPerRun guard; absent roots are skipped.
// Network.SimulationCycle is the compiled-cycle per-slot dispatcher
// (fast handlers only; the slow fallback handlers and per-cycle
// activation are deliberately outside — their allocations are
// amortized per cycle or per message, not per slot).
// compiledSource.PeekAction is the kernel's per-step peek at a cell's
// action source, which also holds the cell's pending cycle starts.
// Simulator.At, RoundRobin.Schedule, BaseStation.RecordReverse and
// Subscriber.OnControlFields are the kernel, scheduler, reception and
// planning steps every busy cycle takes. BaseStation.BeginCycle stays
// out: through the scheduler seam it reaches the FCFS and
// LongestQueueFirst ablation schedulers, which return a fresh schedule
// per call.
var hotRoots = []hotRoot{
	{"internal/sim", "Simulator", "At"},
	{"internal/sched", "RoundRobin", "Schedule"},
	{"internal/core", "BaseStation", "RecordReverse"},
	{"internal/core", "Subscriber", "OnControlFields"},
	{"internal/rs", "Code", "EncodeTo"},
	{"internal/rs", "Code", "DecodeTo"},
	{"internal/frame", "Codec", "EncodePayloadTo"},
	{"internal/frame", "Codec", "DecodePayloadTo"},
	{"internal/frame", "Codec", "EncodeControlFieldsTo"},
	{"internal/frame", "Codec", "DecodeControlFieldsInto"},
	{"internal/frame", "ControlFields", "MarshalTo"},
	{"internal/frame", "", "UnmarshalControlFieldsInto"},
	{"internal/frame", "", "TransmitTo"},
	{"internal/core", "GPSSlotTable", "GrantSchedule"},
	{"internal/core", "Network", "trace"},
	{"internal/core", "Network", "traceD"},
	{"internal/core", "Network", "SimulationCycle"},
	{"internal/core", "compiledSource", "PeekAction"},
	{"internal/core", "Ring", "Trace"},
	{"internal/flight", "Recorder", "Trace"},
	{"internal/flight", "SampledTracer", "Trace"},
	{"internal/obs", "JSONLSink", "Trace"},
	{"internal/obs", "KindMask", "Has"},
	{"internal/baseline", "Cell", "trace"},
	{"internal/baseline", "Cell", "traceD"},
}

// fmtAllocFuncs are the fmt formatters that always allocate their
// result (and box their operands).
var fmtAllocFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
	"Appendf":  true,
}

func runHotPathAlloc(pass *ProgramPass) {
	prog := pass.Prog
	var roots []*FuncNode
	for _, r := range hotRoots {
		if node := prog.FuncNode(r.pkg, r.recv, r.name); node != nil {
			roots = append(roots, node)
		}
	}
	if len(roots) == 0 {
		return
	}
	owner := prog.ReachableFrom(roots)
	for _, node := range prog.Nodes() {
		root := owner[node]
		if root == nil {
			continue
		}
		checkHotFunc(pass, node, root)
	}
}

// checkHotFunc flags allocation sites in one hot function, skipping
// trace-gated regions and error-construction returns.
func checkHotFunc(pass *ProgramPass, node, root *FuncNode) {
	info := node.Pkg.Info
	from := root.String()
	report := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		pass.Reportf(pos, "%s on the hot path (reachable from %s)", msg, from)
	}
	flaggedLits := make(map[*ast.FuncLit]bool)

	ast.Inspect(node.Decl.Body, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		if node.TraceGated(x.Pos()) || node.InErrorReturn(x.Pos()) {
			return false
		}
		switch n := x.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				flaggedLits[lit] = true
			}
		case *ast.FuncLit:
			if !flaggedLits[n] {
				report(n.Pos(), "function literal allocates a closure")
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			case *types.Slice:
				report(n.Pos(), "slice literal allocates; reuse a scratch buffer")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			tv, ok := info.Types[n]
			if ok && tv.Type != nil && tv.Value == nil && isStringType(tv.Type) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			checkHotCall(pass, node, info, n, report)
		}
		return true
	})
}

// checkHotCall classifies one call expression in hot code.
func checkHotCall(pass *ProgramPass, node *FuncNode, info *types.Info, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	// Type conversions: string <-> []byte copies.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		if from != nil {
			if isStringType(to) && isByteSlice(from) {
				report(call.Pos(), "string([]byte) conversion allocates")
			} else if isByteSlice(to) && isStringType(from) {
				report(call.Pos(), "[]byte(string) conversion allocates")
			}
		}
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
			checkHotBuiltin(info, fun.Name, call, report)
			return
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
			report(call.Pos(), "fmt.%s allocates; gate it behind tracing() or precompute", fn.Name())
			return
		}
	}

	// Interface boxing: a concrete non-pointer argument passed to an
	// interface-typed parameter is copied to the heap.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(paramType) {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil {
			continue // constants fold; untyped nil is free
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
			continue // single-word values fit the interface directly
		}
		if isNilIdent(arg, info) {
			continue
		}
		report(arg.Pos(), "interface conversion boxes a %s value", tv.Type.String())
	}
}

// checkHotBuiltin flags the allocating builtins.
func checkHotBuiltin(info *types.Info, name string, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	switch name {
	case "new":
		report(call.Pos(), "new() allocates")
	case "make":
		if len(call.Args) == 0 {
			return
		}
		tv, ok := info.Types[call.Args[0]]
		if !ok || tv.Type == nil {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			report(call.Pos(), "make(map) allocates")
		case *types.Chan:
			report(call.Pos(), "make(chan) allocates")
		case *types.Slice:
			report(call.Pos(), "make([]T) allocates; reuse a scratch buffer")
		}
	case "append":
		if len(call.Args) == 0 {
			return
		}
		switch base := ast.Unparen(call.Args[0]).(type) {
		case *ast.CompositeLit:
			report(call.Pos(), "append to a fresh slice literal allocates every call")
		case *ast.CallExpr:
			report(call.Pos(), "append to a freshly built slice allocates every call")
		case *ast.Ident:
			if isNilIdent(base, info) {
				report(call.Pos(), "append to nil allocates every call")
			}
		}
	}
}

// callSignature resolves the signature of the called function, or nil
// for builtins and unresolvable callees.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}
