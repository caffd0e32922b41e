package rules

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"fairgossip/internal/analysis"
)

// Hotpath complements the AllocsPerRun regression tests with
// source-level diagnostics: the runtime pins catch an allocation after
// it ships, this rule names the allocating construct in review. A
// function opts in with //fair:hotpath in its doc comment; the
// annotated bodies are the per-message and per-round paths the
// million-peer sharded kernel will execute trillions of times.
//
// The rule is interprocedural: allocation-freedom is computed bottom-up
// over the package call graph and exported as a fact per function, so a
// hot body calling an allocating helper — in this package or an
// already-analyzed dependency — is a finding at the call site, with the
// callee chain in the message. The conservative limits are the call
// graph's: calls through interfaces and function values are not
// resolved and are assumed allocation-free (the runtime pins remain the
// backstop for those), and callees outside the analyzed module are
// assumed free except for the known formatters (fmt.*, errors.New).
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "Functions annotated //fair:hotpath may not contain allocating constructs: closures, go/defer, make/new, &composite and slice/map literals, appends that can grow beyond reused scratch (s[:0] reuse is fine), string concatenation, string<->[]byte conversions, boxing a non-pointer value into an interface, or method values. Nor may they call a function that allocates, transitively: allocation-freedom facts flow bottom-up over the call graph and a dirty callee is reported at the call site with the chain. //fair:ignore hotpath <reason> audits the deliberate exceptions.",
	Run:  runHotpath,
}

// A hotFact is the exported allocation-freedom summary of one function:
// the "hotpath:<FuncID>" fact downstream packages consume.
type hotFact struct {
	Free bool
	Why  string // first offense, as a chain: "make/new at net.go:42" or "calls grow → make/new at net.go:42"
}

// hotReporter receives one allocating-construct finding; report mode
// plugs in Pass.Report, fact collection records the first offense.
type hotReporter func(pos token.Pos, category, message string)

func runHotpath(pass *analysis.Pass) error {
	graph := pass.Graph()
	st := &allocState{
		pass:    pass,
		graph:   graph,
		hatched: hatchedLines(pass, "hotpath"),
		memo:    make(map[string]hotFact),
		busy:    make(map[string]bool),
	}
	// Export a fact for every declared function, bottom-up, whether or
	// not anything here is annotated: an importing package's hot path
	// may call it, and by then this package's syntax is gone.
	for _, node := range graph.Funcs {
		fact, _ := st.freeness(node.Fn)
		pass.ExportFact("hotpath:"+node.ID, fact)
	}

	for _, f := range pass.Files {
		// Every //fair:hotpath directive must sit in some function's doc
		// comment: a floating annotation pins nothing and would rot.
		funcDocs := make(map[*ast.Comment]bool)
		var hot []*ast.FuncDecl
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Doc != nil {
				for _, c := range fn.Doc.List {
					funcDocs[c] = true
				}
			}
			if analysis.HasDirective(fn.Doc, analysis.DirHotpath) {
				hot = append(hot, fn)
			}
		}
		for _, d := range analysis.ParseDirectives(f) {
			if d.Kind == analysis.DirHotpath && !funcDocs[d.Comment] {
				pass.Report(d.Comment.Pos(), "misplaced",
					"//fair:hotpath must be part of a function's doc comment; this one annotates nothing")
			}
		}
		for _, fn := range hot {
			if fn.Body == nil {
				continue
			}
			checkHotBody(pass, fn)
			st.checkHotCalls(fn)
		}
	}
	return nil
}

// allocState computes per-function allocation-freedom bottom-up over
// the package call graph, consulting the fact store for callees in
// already-analyzed packages.
type allocState struct {
	pass    *analysis.Pass
	graph   *analysis.CallGraph
	hatched map[string]map[int]bool
	memo    map[string]hotFact
	busy    map[string]bool
}

// freeness resolves one function's allocation-freedom. stable is false
// when the answer leaned on an in-progress node of a recursion cycle
// (the optimistic assumption); unstable answers are not memoized so a
// later top-level query recomputes them with more of the cycle known.
func (st *allocState) freeness(fn *types.Func) (fact hotFact, stable bool) {
	id := analysis.FuncID(fn)
	if f, ok := st.memo[id]; ok {
		return f, true
	}
	node, local := st.graph.ByID[id]
	if !local {
		return st.externalFreeness(fn), true
	}
	if st.busy[id] {
		// Recursion: the call itself allocates nothing beyond what the
		// cycle's own bodies already show, so assume free here.
		return hotFact{Free: true}, false
	}
	st.busy[id] = true
	defer delete(st.busy, id)

	stable = true
	fact = hotFact{Free: true}
	if site, ok := st.firstAllocSite(node.Decl); ok {
		fact = hotFact{Free: false, Why: site}
	} else {
		for _, call := range node.Calls {
			if call.Kind != analysis.EdgeCall || call.Callee == nil || call.Iface {
				continue
			}
			if st.isHatched(call.Pos) {
				// A hatched call site is already audited where the
				// finding lands; callers of this function should not
				// need a second hatch for the same allocation.
				continue
			}
			sub, subStable := st.freeness(call.Callee)
			stable = stable && subStable
			if !sub.Free {
				fact = hotFact{Free: false, Why: fmt.Sprintf("calls %s → %s", shortFuncName(call.Callee), sub.Why)}
				break
			}
		}
	}
	if stable {
		st.memo[id] = fact
	}
	return fact, stable
}

// externalFreeness answers for callees outside the analyzed packages:
// an exported fact if the callee's package was analyzed earlier in this
// run, else a denylist of the notorious allocators, else assumed free
// (the AllocsPerRun pins backstop the assumption).
func (st *allocState) externalFreeness(fn *types.Func) hotFact {
	id := analysis.FuncID(fn)
	if f, ok := st.pass.LookupFact("hotpath:" + id); ok {
		if hf, ok := f.(hotFact); ok {
			return hf
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "fmt":
			return hotFact{Free: false, Why: fmt.Sprintf("%s.%s formats through interfaces and allocates", pkg.Name(), fn.Name())}
		case "errors":
			if fn.Name() == "New" {
				return hotFact{Free: false, Why: "errors.New allocates the error value"}
			}
		}
	}
	return hotFact{Free: true}
}

// firstAllocSite scans one function body in fact-collection mode and
// returns the first allocating construct as a position-stamped phrase.
// Two deliberate differences from report mode: sites hatched with
// //fair:ignore hotpath are excluded (the hatch on an annotated callee
// already audits the allocation — its callers should not need a second
// hatch), and appends into a parameter-derived slice are free (growth
// is the caller's contract, the wire.Append* codec shape).
func (st *allocState) firstAllocSite(fn *ast.FuncDecl) (string, bool) {
	var why string
	found := false
	record := func(pos token.Pos, category, _ string) {
		if found || st.isHatched(pos) {
			return
		}
		found = true
		why = fmt.Sprintf("%s at %s", hotCategoryNoun(category), st.shortPos(pos))
	}
	scanHotBody(st.pass.TypesInfo, fn, true, record)
	return why, found
}

// checkHotCalls reports the interprocedural findings for one annotated
// hot function: every statically resolved ordinary call whose callee is
// not allocation-free, with the offending chain.
func (st *allocState) checkHotCalls(fn *ast.FuncDecl) {
	obj, ok := st.pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	node, ok := st.graph.ByObj[obj]
	if !ok {
		return
	}
	for _, call := range node.Calls {
		if call.Kind != analysis.EdgeCall || call.Callee == nil || call.Iface {
			continue
		}
		fact, _ := st.freeness(call.Callee)
		if !fact.Free {
			st.pass.Reportf(call.Pos, "call",
				"call to %s in a hot path is not allocation-free: %s — make the callee allocation-free, hoist the call, or hatch this call site",
				shortFuncName(call.Callee), fact.Why)
		}
	}
}

func (st *allocState) isHatched(pos token.Pos) bool {
	p := st.pass.Fset.Position(pos)
	lines := st.hatched[p.Filename]
	return lines[p.Line] || lines[p.Line-1]
}

func (st *allocState) shortPos(pos token.Pos) string {
	p := st.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// hatchedLines indexes the lines carrying a //fair:ignore <rule>
// directive, per file: a diagnostic on the directive's line or the line
// below is suppressed by the driver, so fact collection skips the same
// sites.
func hatchedLines(pass *analysis.Pass, rule string) map[string]map[int]bool {
	m := make(map[string]map[int]bool)
	for _, f := range pass.Files {
		for _, d := range analysis.ParseDirectives(f) {
			if d.Kind != analysis.DirIgnore || d.Rule != rule {
				continue
			}
			p := pass.Fset.Position(d.Comment.Pos())
			if m[p.Filename] == nil {
				m[p.Filename] = make(map[int]bool)
			}
			m[p.Filename][p.Line] = true
		}
	}
	return m
}

func hotCategoryNoun(category string) string {
	switch category {
	case "closure":
		return "closure literal"
	case "go":
		return "go statement"
	case "defer":
		return "defer"
	case "make":
		return "make/new"
	case "append":
		return "growing append"
	case "lit":
		return "composite literal"
	case "concat":
		return "string concatenation"
	case "conv":
		return "string<->[]byte conversion"
	case "iface":
		return "interface boxing"
	case "methodvalue":
		return "method value"
	}
	return category
}

// shortFuncName trims module-path noise off a FullName for messages:
// "(*fairgossip/internal/gossip.Peer).Round" → "(*gossip.Peer).Round".
func shortFuncName(fn *types.Func) string {
	s := fn.FullName()
	s = strings.ReplaceAll(s, "fairgossip/internal/", "")
	s = strings.ReplaceAll(s, "fairgossip/", "")
	s = strings.ReplaceAll(s, "fixtures/", "")
	return s
}

// checkHotBody reports every allocating construct in an annotated hot
// function (report mode: the driver applies //fair:ignore hatches).
func checkHotBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	scanHotBody(pass.TypesInfo, fn, false, pass.Report)
}

// scanHotBody walks one function body and reports each allocating
// construct. paramAppendOK additionally treats appends into
// parameter-derived slices as free — fact-collection mode uses it so
// append-into-caller-buffer helpers (the wire codec) stay
// allocation-free by contract; report mode on annotated bodies keeps
// the stricter scratch-only rule.
func scanHotBody(info *types.Info, fn *ast.FuncDecl, paramAppendOK bool, report hotReporter) {
	defs := collectDefs(info, fn.Body)
	results := fnResults(info, fn)
	var params map[types.Object]bool
	if paramAppendOK {
		params = paramObjs(info, fn)
	}

	// Method-value detection needs to know which selectors are callee
	// positions (those are direct calls, not bound closures).
	callees := make(map[ast.Expr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callees[call.Fun] = true
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure",
				"closure literal in a hot path: captures allocate and the call is dynamic — hoist the state or pass it explicitly")
			return false // the closure body is cold code by definition
		case *ast.GoStmt:
			report(n.Pos(), "go",
				"go statement in a hot path: spawning allocates a stack — hot paths run on their caller's goroutine")
		case *ast.DeferStmt:
			report(n.Pos(), "defer",
				"defer in a hot path: deferred calls cost setup work per invocation — unwind explicitly")
		case *ast.CallExpr:
			checkHotCall(info, defs, params, n, report)
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok {
				report(n.Pos(), "lit",
					"&composite literal in a hot path escapes to the heap: reuse a pooled or scratch value")
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "lit",
						"slice/map literal in a hot path allocates: reuse scratch storage")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n.Pos(), "concat",
							"string concatenation in a hot path allocates: append into a reused []byte instead")
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkIfaceAssign(info, n.Lhs[i], n.Rhs[i], report)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if t := info.TypeOf(n.Type); t != nil && types.IsInterface(t) {
					for _, v := range n.Values {
						checkBoxing(info, t, v, report)
					}
				}
			}
		case *ast.ReturnStmt:
			for i, r := range n.Results {
				if i < len(results) && types.IsInterface(results[i]) {
					checkBoxing(info, results[i], r, report)
				}
			}
		case *ast.SelectorExpr:
			if !callees[n] {
				if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					report(n.Pos(), "methodvalue",
						"method value in a hot path allocates a bound closure: call the method directly or pass the receiver")
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkHotCall audits one call: allocating builtins, growing appends,
// allocating conversions, and implicit boxing at interface parameters.
func checkHotCall(info *types.Info, defs map[types.Object]ast.Expr, params map[types.Object]bool, call *ast.CallExpr, report hotReporter) {
	switch builtinName(info, call) {
	case "make":
		report(call.Pos(), "make", "make in a hot path allocates: hoist the buffer and reuse it")
		return
	case "new":
		report(call.Pos(), "make", "new in a hot path allocates: reuse a pooled value")
		return
	case "append":
		if len(call.Args) > 0 && !scratchReuse(info, defs, call.Args[0], 0) {
			if nonGrowingDelete(call) {
				return // append(x[:i], x[j:]...) shrinks in place, never grows
			}
			if params != nil && derivesFromParam(info, defs, params, call.Args[0], 0) {
				return // growth into the caller's buffer (or the receiver's amortized storage) is the owner's contract
			}
			report(call.Pos(), "append",
				"append that can grow in a hot path allocates: append into reused scratch (s = s[:0]) so growth amortizes to zero")
		}
		return
	case "":
	default:
		return // other builtins (len, cap, copy, delete, ...) do not allocate
	}

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if types.IsInterface(target) && len(call.Args) == 1 {
			checkBoxing(info, target, call.Args[0], report)
			return
		}
		if len(call.Args) == 1 && stringBytesConv(info, target, call.Args[0]) {
			report(call.Pos(), "conv",
				"string<->[]byte conversion in a hot path copies and allocates: keep one representation end to end")
		}
		return
	}

	// Ordinary call: boxing at interface-typed parameters.
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params2 := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params2.Len()-1:
			pt = params2.At(params2.Len() - 1).Type().(*types.Slice).Elem()
			if i == params2.Len()-1 && len(call.Args) == params2.Len() && call.Ellipsis.IsValid() {
				continue // s... forwards the existing slice
			}
			if types.IsInterface(pt) {
				// The variadic slice itself is a fresh allocation even
				// before any boxing.
				report(arg.Pos(), "iface",
					"variadic interface argument in a hot path allocates the argument slice (and boxes non-pointer values)")
				continue
			}
		case i < params2.Len():
			pt = params2.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			checkBoxing(info, pt, arg, report)
		}
	}
}

// checkBoxing flags storing a concrete non-pointer value into an
// interface: the value is copied to the heap to fit behind the
// interface's data word. Pointer-shaped values (pointers, channels,
// maps, funcs, unsafe pointers) ride in the word directly; values
// already of interface type convert for free.
func checkBoxing(info *types.Info, target types.Type, arg ast.Expr, report hotReporter) {
	at := info.TypeOf(arg)
	if at == nil || types.IsInterface(at) {
		return
	}
	if tv, ok := info.Types[arg]; ok && tv.IsNil() {
		return
	}
	switch u := at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: rides in the interface word, no copy
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
		// Non-pointer basics (ints, strings, floats) still box.
	}
	report(arg.Pos(), "iface",
		fmt.Sprintf("boxing a non-pointer %s into %s in a hot path allocates: pass a pointer or hoist the conversion out of the loop", at, target))
}

// scratchReuse reports whether the append target provably derives from
// a s[:0]-style reset of reused scratch storage, the sanctioned
// amortized-zero pattern (randutil.PermInto, View.SampleInto).
func scratchReuse(info *types.Info, defs map[types.Object]ast.Expr, e ast.Expr, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := e.(type) {
	case *ast.SliceExpr:
		if e.High == nil {
			return false
		}
		if tv, ok := info.Types[e.High]; ok && tv.Value != nil {
			if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
				return true
			}
		}
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if rhs, ok := defs[obj]; ok {
			return scratchReuse(info, defs, rhs, depth+1)
		}
	case *ast.CallExpr:
		if builtinName(info, e) == "append" && len(e.Args) > 0 {
			return scratchReuse(info, defs, e.Args[0], depth+1)
		}
	case *ast.ParenExpr:
		return scratchReuse(info, defs, e.X, depth+1)
	}
	return false
}

// derivesFromParam traces an append target back to a function
// parameter or a receiver-reachable field (possibly through reslices,
// dereferences, and intermediate locals): appending into the caller's
// buffer is the caller's contract, and appending into the receiver's
// own storage (s.heap, b.freeL) amortizes over the owner's lifetime
// exactly like s[:0] scratch — both shapes the AllocsPerRun pins
// confirm at zero in steady state.
func derivesFromParam(info *types.Info, defs map[types.Object]ast.Expr, params map[types.Object]bool, e ast.Expr, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if params[obj] {
			return true
		}
		if rhs, ok := defs[obj]; ok {
			return derivesFromParam(info, defs, params, rhs, depth+1)
		}
	case *ast.SelectorExpr:
		return derivesFromParam(info, defs, params, e.X, depth+1)
	case *ast.StarExpr:
		return derivesFromParam(info, defs, params, e.X, depth+1)
	case *ast.SliceExpr:
		return derivesFromParam(info, defs, params, e.X, depth+1)
	case *ast.CallExpr:
		if builtinName(info, e) == "append" && len(e.Args) > 0 {
			return derivesFromParam(info, defs, params, e.Args[0], depth+1)
		}
	case *ast.ParenExpr:
		return derivesFromParam(info, defs, params, e.X, depth+1)
	}
	return false
}

// nonGrowingDelete recognizes the in-place deletion idiom
// append(x[:i], x[j:]...): both halves slice the same base, so the
// result is shorter than the original and the append can never grow.
func nonGrowingDelete(call *ast.CallExpr) bool {
	if len(call.Args) != 2 || !call.Ellipsis.IsValid() {
		return false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || dst.High == nil {
		return false
	}
	src, ok := ast.Unparen(call.Args[1]).(*ast.SliceExpr)
	if !ok {
		return false
	}
	return exprPath(dst.X) != "" && exprPath(dst.X) == exprPath(src.X)
}

// exprPath spells a pure ident/selector chain ("v.entries") for
// same-base comparison; anything with calls or indexing yields "".
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// paramObjs collects the function's parameter objects (including the
// receiver) for the parameter-derivation trace.
func paramObjs(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	params := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.ObjectOf(name); obj != nil {
					params[obj] = true
				}
			}
		}
	}
	if fn.Recv != nil {
		addFields(fn.Recv)
	}
	if fn.Type != nil {
		addFields(fn.Type.Params)
	}
	return params
}

// checkIfaceAssign flags assignments that box a concrete non-pointer
// value into an interface-typed location.
func checkIfaceAssign(info *types.Info, lhs, rhs ast.Expr, report hotReporter) {
	lt := info.TypeOf(lhs)
	if lt == nil || !types.IsInterface(lt) {
		return
	}
	checkBoxing(info, lt, rhs, report)
}

// collectDefs records each local's first defining expression, for the
// scratch-reuse origin trace.
func collectDefs(info *types.Info, body *ast.BlockStmt) map[types.Object]ast.Expr {
	defs := make(map[types.Object]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						if _, seen := defs[obj]; !seen {
							defs[obj] = n.Rhs[i]
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if obj := info.ObjectOf(name); obj != nil {
						if _, seen := defs[obj]; !seen {
							defs[obj] = n.Values[i]
						}
					}
				}
			}
		}
		return true
	})
	return defs
}

func fnResults(info *types.Info, fn *ast.FuncDecl) []types.Type {
	obj := info.ObjectOf(fn.Name)
	if obj == nil {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []types.Type
	for i := 0; i < sig.Results().Len(); i++ {
		out = append(out, sig.Results().At(i).Type())
	}
	return out
}

// stringBytesConv reports a string([]byte) or []byte(string) crossing.
func stringBytesConv(info *types.Info, target types.Type, arg ast.Expr) bool {
	at := info.TypeOf(arg)
	if at == nil {
		return false
	}
	toString := false
	if b, ok := target.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		toString = true
	}
	fromString := false
	if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		fromString = true
	}
	return (toString && isByteSlice(at)) || (fromString && isByteSlice(target))
}
