package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural determinism-taint machinery behind the
// taintdet checker. It computes, over the whole module, a summary per
// declared function — does a nondeterministic source flow to its results,
// which parameters flow to its results, and which parameters reach a
// determinism sink inside it — then lets the checker walk each function
// with those summaries in hand, so taint is followed through arbitrary
// call chains and closures instead of one line at a time.
//
// Sources: time.Now, the process-global math/rand draws, map iteration
// order, and environment reads. Sinks: the report emitters, the serving
// layer's decision-cache keys, and the /v1 response bodies. Sorting a
// slice (sort.*, slices.Sort*, or any helper whose summary comes out
// clean, like report.SortedKeys) cancels map-order taint: order
// nondeterminism is exactly what a sort removes.

// taintKind is a bitmask of nondeterminism sources.
type taintKind uint8

const (
	taintTime     taintKind = 1 << iota // wall-clock reads
	taintRand                           // process-global math/rand draws
	taintMapOrder                       // map iteration order
	taintEnv                            // environment reads
)

// tval is the abstract value of one expression: which sources taint it,
// a printable description of the first source seen (with its call chain),
// and which parameters of the current frame flow into it.
type tval struct {
	mask   taintKind
	src    string
	params uint64
}

func (v tval) or(w tval) tval {
	out := tval{mask: v.mask | w.mask, params: v.params | w.params, src: v.src}
	if out.src == "" {
		out.src = w.src
	}
	return out
}

func (v tval) tainted() bool { return v.mask != 0 }

// summary is the interprocedural fact sheet of one function: intrinsic
// result taint (ret.mask, ret.src), parameters flowing to a result
// (ret.params), and parameters reaching a determinism sink inside it or
// one of its callees (sinkFlow, described by sinkDesc).
type summary struct {
	ret      tval
	sinkFlow uint64
	sinkDesc string
}

// merge folds a freshly-computed summary in, reporting growth. Summaries
// only grow, so the fixpoint below terminates.
func (s *summary) merge(w *taintWalker) bool {
	changed := false
	if w.ret.mask&^s.ret.mask != 0 || w.ret.params&^s.ret.params != 0 {
		changed = true
	}
	if w.sinkFlow&^s.sinkFlow != 0 {
		changed = true
	}
	s.ret.mask |= w.ret.mask
	s.ret.params |= w.ret.params
	s.sinkFlow |= w.sinkFlow
	if s.ret.src == "" {
		s.ret.src = w.ret.src
	}
	if s.sinkDesc == "" {
		s.sinkDesc = w.sinkDesc
	}
	return changed
}

// taintFacts is the program-wide table: one summary per declared module
// function, plus the summaries of every function literal encountered
// during the fixpoint. Both are computed once in NewProgram and read-only
// afterwards, so parallel passes can share them freely.
type taintFacts struct {
	prog *Program
	fns  map[*types.Func]*summary
	lits map[*ast.FuncLit]*summary
}

// computeTaintFacts runs the summary fixpoint over the call graph: every
// declared function is re-walked until no summary grows. Cycles
// (recursion) converge because summaries are monotone.
func computeTaintFacts(prog *Program) *taintFacts {
	f := &taintFacts{
		prog: prog,
		fns:  map[*types.Func]*summary{},
		lits: map[*ast.FuncLit]*summary{},
	}
	nodes := prog.CallGraph.Nodes()
	for _, n := range nodes {
		f.fns[n.Fn] = &summary{}
	}
	for range nodes { // at most one round per call-chain hop, usually 2-3
		changed := false
		for _, n := range nodes {
			w := f.newWalker(n.Pkg, n.Decl, nil)
			w.walk()
			if f.fns[n.Fn].merge(w) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return f
}

// reportFunc receives sink hits during a reporting walk.
type reportFunc func(pos token.Pos, format string, args ...interface{})

// taintWalker analyzes one function body: expressions evaluate to tvals,
// assignments move them between locals, closures are analyzed inline with
// their captured taint snapshotted, and calls apply callee summaries.
// With report set it also fires on sink calls; without, it only computes
// the function's own summary.
type taintWalker struct {
	f   *taintFacts
	pkg *Package

	params  map[types.Object]int          // this frame's parameters
	env     map[types.Object]tval         // local and captured values
	funcs   map[types.Object]*ast.FuncLit // locals bound to closures
	srcRefs map[types.Object]tval         // locals holding bare source refs (clock := time.Now)
	results []types.Object                // named results, for naked returns
	body    *ast.BlockStmt

	ret      tval
	sinkFlow uint64
	sinkDesc string

	report   reportFunc
	litCache map[*ast.FuncLit]*summary // report-mode overlay; fixpoint writes f.lits directly
	active   map[*ast.FuncLit]bool     // closures being walked in this chain, to cut recursion
}

// newWalker frames a declared function. report may be nil (summary mode).
func (f *taintFacts) newWalker(pkg *Package, decl *ast.FuncDecl, report reportFunc) *taintWalker {
	w := &taintWalker{
		f: f, pkg: pkg,
		params:  map[types.Object]int{},
		env:     map[types.Object]tval{},
		funcs:   map[types.Object]*ast.FuncLit{},
		srcRefs: map[types.Object]tval{},
		body:    decl.Body,
		report:  report,
		active:  map[*ast.FuncLit]bool{},
	}
	if report != nil {
		w.litCache = map[*ast.FuncLit]*summary{}
	}
	w.bindParams(decl.Type)
	return w
}

// bindParams indexes the frame's parameters and names its results.
func (w *taintWalker) bindParams(ft *ast.FuncType) {
	idx := 0
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := w.pkg.Info.Defs[name]; obj != nil && idx < 64 {
					w.params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			for _, name := range field.Names {
				if obj := w.pkg.Info.Defs[name]; obj != nil {
					w.results = append(w.results, obj)
				}
			}
		}
	}
}

// walk runs the body twice, so taint acquired late in a loop body reaches
// the uses earlier in it on the second pass.
func (w *taintWalker) walk() {
	if w.body == nil {
		return
	}
	for range [2]int{} {
		for _, s := range w.body.List {
			w.stmt(s)
		}
	}
}

// ---- statements ----------------------------------------------------------

func (w *taintWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			w.stmt(inner)
		}
	case *ast.ExprStmt:
		if w.sanitize(s.X) {
			return
		}
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.valueSpec(vs)
				}
			}
		}
	case *ast.RangeStmt:
		v := w.expr(s.X)
		if t := w.pkg.Info.TypeOf(s.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				v = v.or(tval{mask: taintMapOrder, src: "map iteration order"})
			}
		}
		w.bind(s.Key, v)
		w.bind(s.Value, v)
		if s.Body != nil {
			w.stmt(s.Body)
		}
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			for _, obj := range w.results {
				w.ret = w.ret.or(w.env[obj])
			}
			return
		}
		for _, r := range s.Results {
			w.ret = w.ret.or(w.expr(r))
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.stmt(s.Body)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Body)
		if s.Post != nil {
			w.stmt(s.Post)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		for _, inner := range s.Body {
			w.stmt(inner)
		}
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm)
		}
		for _, inner := range s.Body {
			w.stmt(inner)
		}
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

// assign routes right-hand tvals into left-hand locals. Compound
// assignments merge with the existing value; plain assignment overwrites,
// which is what lets `ks = report.SortedKeys(m)` launder an ordered slice.
func (w *taintWalker) assign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		v := w.expr(s.Rhs[0])
		for _, lhs := range s.Lhs {
			w.store(lhs, v, s.Tok)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhs := ast.Unparen(s.Rhs[i])
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := w.pkg.Info.ObjectOf(id); obj != nil {
				if lit, isLit := rhs.(*ast.FuncLit); isLit {
					w.litSummary(lit) // analyze the body; remember the binding
					w.funcs[obj] = lit
					continue
				}
				if src, ok := w.bareSource(rhs); ok {
					w.srcRefs[obj] = src
					continue
				}
			}
		}
		w.store(lhs, w.expr(s.Rhs[i]), s.Tok)
	}
}

// valueSpec handles `var x = expr` declarations like defines.
func (w *taintWalker) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		v := w.expr(vs.Values[0])
		for _, name := range vs.Names {
			w.bind(name, v)
		}
		return
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			if lit, ok := ast.Unparen(vs.Values[i]).(*ast.FuncLit); ok {
				if obj := w.pkg.Info.Defs[name]; obj != nil {
					w.litSummary(lit)
					w.funcs[obj] = lit
					continue
				}
			}
			w.bind(name, w.expr(vs.Values[i]))
		}
	}
}

// store writes a value through an assignable expression. Writes into a
// local container (x[i] = v) taint the container; writes through fields
// and pointers fall off the frame — the analysis tracks locals, not heap.
func (w *taintWalker) store(lhs ast.Expr, v tval, tok token.Token) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := w.pkg.Info.ObjectOf(lhs)
		if obj == nil {
			return
		}
		if tok == token.ASSIGN || tok == token.DEFINE {
			w.env[obj] = v
		} else {
			w.env[obj] = w.env[obj].or(v)
		}
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if obj := w.pkg.Info.ObjectOf(id); obj != nil {
				w.env[obj] = w.env[obj].or(v)
			}
		}
	}
}

// bind defines an identifier (range variables, value specs).
func (w *taintWalker) bind(e ast.Expr, v tval) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := w.pkg.Info.ObjectOf(id); obj != nil {
		w.env[obj] = v
	}
}

// sanitize recognizes in-place sort statements — sort.X(ks),
// slices.Sort(ks) — and clears the map-order bit of the sorted local.
func (w *taintWalker) sanitize(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, kind := StaticCallee(w.pkg, call)
	if kind != calleeFunc || fn.Pkg() == nil || !isSortFunc(fn) {
		return false
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := w.pkg.Info.ObjectOf(id); obj != nil {
			v := w.env[obj]
			v.mask &^= taintMapOrder
			w.env[obj] = v
		}
	}
	return true
}

// isSortFunc reports whether fn is a sorting routine from sort or slices
// (sort.Sort, sort.Slice, sort.Strings, slices.SortFunc, ...).
func isSortFunc(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "sort", "slices":
		name := fn.Name()
		switch name {
		case "Strings", "Ints", "Float64s", "Reverse":
			return true
		}
		return strings.HasPrefix(name, "Sort") ||
			strings.HasPrefix(name, "Stable") ||
			strings.HasPrefix(name, "Slice")
	}
	return false
}

// ---- expressions ---------------------------------------------------------

func (w *taintWalker) expr(e ast.Expr) tval {
	switch e := e.(type) {
	case nil:
		return tval{}
	case *ast.Ident:
		obj := w.pkg.Info.ObjectOf(e)
		if obj == nil {
			return tval{}
		}
		if i, ok := w.params[obj]; ok {
			return tval{params: 1 << uint(i)}
		}
		return w.env[obj]
	case *ast.CallExpr:
		return w.call(e)
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.SelectorExpr:
		if _, ok := w.pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return tval{} // a bare func/method value; flagged by detrand if it matters
		}
		return w.expr(e.X)
	case *ast.BinaryExpr:
		return w.expr(e.X).or(w.expr(e.Y))
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return tval{} // channel receive: contents are beyond the frame
		}
		return w.expr(e.X)
	case *ast.StarExpr:
		return w.expr(e.X)
	case *ast.IndexExpr:
		if tv, ok := w.pkg.Info.Types[e]; ok && tv.IsType() {
			return tval{}
		}
		return w.expr(e.X).or(w.expr(e.Index))
	case *ast.IndexListExpr:
		return w.expr(e.X)
	case *ast.SliceExpr:
		return w.expr(e.X)
	case *ast.TypeAssertExpr:
		return w.expr(e.X)
	case *ast.CompositeLit:
		var v tval
		for _, elt := range e.Elts {
			v = v.or(w.expr(elt))
		}
		return v
	case *ast.KeyValueExpr:
		return w.expr(e.Key).or(w.expr(e.Value))
	case *ast.FuncLit:
		w.litSummary(e)
		return tval{}
	default:
		return tval{}
	}
}

// bareSource recognizes an uncalled source reference — `clock := time.Now`
// — so a later call through the local still taints.
func (w *taintWalker) bareSource(e ast.Expr) (tval, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return tval{}, false
	}
	fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return tval{}, false
	}
	if mask, src, isSrc := sourceOf(fn); isSrc {
		return tval{mask: mask, src: src}, true
	}
	return tval{}, false
}

// sourceOf classifies the nondeterminism sources.
func sourceOf(fn *types.Func) (taintKind, string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return 0, "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return 0, "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if name == "Now" {
			return taintTime, "time.Now", true
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[name] {
			return taintRand, fn.Pkg().Name() + "." + name, true
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return taintEnv, "os." + name, true
		}
	}
	return 0, "", false
}

// call evaluates a call expression: conversions and builtins pass taint
// through, sources introduce it, module callees apply their summaries
// (results and sink flows alike), and unknown callees conservatively
// propagate every argument.
func (w *taintWalker) call(call *ast.CallExpr) tval {
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.expr(call.Args[0])
		}
		return tval{}
	}
	fun := ast.Unparen(call.Fun)

	// An immediately-invoked or locally-bound closure: apply its summary.
	if lit, ok := fun.(*ast.FuncLit); ok {
		return w.applyCall(call, w.litSummary(lit), "func literal", nil)
	}
	if id, ok := fun.(*ast.Ident); ok {
		if obj := w.pkg.Info.ObjectOf(id); obj != nil {
			if lit, bound := w.funcs[obj]; bound {
				return w.applyCall(call, w.litSummary(lit), id.Name, nil)
			}
			if src, held := w.srcRefs[obj]; held {
				return src // calling a local bound to time.Now & co.
			}
		}
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "copy", "min", "max":
				var v tval
				for _, a := range call.Args {
					v = v.or(w.expr(a))
				}
				return v
			default:
				return tval{} // len, cap, make, new, delete, ...
			}
		}
	}

	fn, kind := StaticCallee(w.pkg, call)
	if kind == calleeFunc && fn != nil {
		if mask, src, isSrc := sourceOf(fn); isSrc {
			for _, a := range call.Args {
				w.expr(a)
			}
			return tval{mask: mask, src: src}
		}
		var recv tval
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if _, isPkg := w.pkg.Info.Uses[selBaseIdent(sel)].(*types.PkgName); !isPkg {
				recv = w.expr(sel.X)
			}
		}
		if s, inModule := w.f.fns[fn]; inModule {
			w.checkSink(call, fn)
			return w.applyCall(call, s, fn.Name(), nil).or(tval{mask: recv.mask, src: recv.src})
		}
		// External callee: arguments propagate; a sorting routine
		// returning a fresh slice (slices.Sorted) launders order.
		v := recv
		for _, a := range call.Args {
			v = v.or(w.expr(a))
		}
		if isSortFunc(fn) || (fn.Pkg() != nil && fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sorted")) {
			v.mask &^= taintMapOrder
		}
		return v
	}

	// Dynamic call: evaluate arguments, propagate them conservatively.
	var v tval
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		v = v.or(w.expr(sel.X))
	}
	for _, a := range call.Args {
		v = v.or(w.expr(a))
	}
	return v
}

// selBaseIdent digs the base identifier out of a selector, for the
// package-qualifier test.
func selBaseIdent(sel *ast.SelectorExpr) *ast.Ident {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id
	}
	return &ast.Ident{}
}

// applyCall maps a callee summary over a call site: intrinsic result
// taint chains its source description through the callee's name,
// parameter flows forward argument taint, and sink flows either fire a
// report (a tainted argument meets a sink inside the callee) or extend
// this frame's own sink summary (a parameter does).
func (w *taintWalker) applyCall(call *ast.CallExpr, s *summary, name string, sig *types.Signature) tval {
	if s == nil {
		s = &summary{}
	}
	out := tval{mask: s.ret.mask}
	if out.mask != 0 {
		out.src = chainSrc(s.ret.src, name)
	}
	if fn, kind := StaticCallee(w.pkg, call); kind == calleeFunc && fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	for i, arg := range call.Args {
		av := w.expr(arg)
		bit := paramBit(sig, i, len(call.Args))
		if s.ret.params&bit != 0 {
			out = out.or(tval{mask: av.mask, src: av.src, params: av.params})
		}
		if s.sinkFlow&bit != 0 {
			if av.tainted() && w.report != nil {
				w.report(arg.Pos(),
					"nondeterministic value (%s) reaches %s through the call to %s; same-seed runs must be byte-identical",
					av.src, s.sinkDesc, name)
			}
			w.sinkFlow |= av.params
			if w.sinkDesc == "" {
				w.sinkDesc = s.sinkDesc
			}
		}
	}
	return out
}

// chainSrc extends a source description with the callee it traveled
// through, producing chains like "time.Now via nowMillis → stamp".
func chainSrc(src, via string) string {
	if src == "" {
		return via
	}
	if strings.Contains(src, " via ") {
		return src + " → " + via
	}
	return src + " via " + via
}

// paramBit maps an argument index to its parameter bit, folding variadic
// tails onto the last parameter.
func paramBit(sig *types.Signature, arg, nargs int) uint64 {
	i := arg
	if sig != nil && sig.Variadic() && arg >= sig.Params().Len()-1 {
		i = sig.Params().Len() - 1
	}
	if i < 0 || i >= 64 {
		return 0
	}
	return 1 << uint(i)
}

// litSummary analyzes a function literal in a nested frame and returns
// its summary. Captured locals enter the closure with their masks but
// without the enclosing frame's parameter bits — a closure's parameter
// space is its own. During the program fixpoint the summaries live in the
// shared table; a reporting walk keeps a private overlay so parallel
// passes never write shared state.
func (w *taintWalker) litSummary(lit *ast.FuncLit) *summary {
	table := w.f.lits
	if w.litCache != nil {
		table = w.litCache
	}
	if w.active[lit] {
		// A self-recursive closure (f = func() { ... f() ... }): return
		// the summary accumulated so far; the outer fixpoint converges it.
		s, ok := table[lit]
		if !ok {
			s = &summary{}
			table[lit] = s
		}
		return s
	}
	w.active[lit] = true
	defer delete(w.active, lit)
	nested := &taintWalker{
		f: w.f, pkg: w.pkg,
		params:   map[types.Object]int{},
		env:      map[types.Object]tval{},
		funcs:    map[types.Object]*ast.FuncLit{},
		srcRefs:  map[types.Object]tval{},
		body:     lit.Body,
		report:   w.report,
		litCache: w.litCache,
		active:   w.active,
	}
	for obj, v := range w.env {
		nested.env[obj] = tval{mask: v.mask, src: v.src}
	}
	for obj, l := range w.funcs {
		nested.funcs[obj] = l
	}
	for obj, v := range w.srcRefs {
		nested.srcRefs[obj] = v
	}
	nested.bindParams(lit.Type)
	nested.walk()
	s, ok := table[lit]
	if !ok {
		s = &summary{}
		table[lit] = s
	}
	s.merge(nested)
	return s
}

// checkSink fires when a tainted value is passed directly to a sink, and
// records parameter→sink flows for the summary either way.
func (w *taintWalker) checkSink(call *ast.CallExpr, fn *types.Func) {
	desc, takes, isSink := w.f.sinkOf(fn)
	if !isSink {
		return
	}
	for i, arg := range call.Args {
		if !takes(i) {
			continue
		}
		av := w.expr(arg)
		if av.tainted() && w.report != nil {
			w.report(arg.Pos(),
				"nondeterministic value (%s) reaches %s; same-seed runs must be byte-identical",
				av.src, desc)
		}
		if av.params != 0 {
			w.sinkFlow |= av.params
			if w.sinkDesc == "" {
				w.sinkDesc = desc
			}
		}
	}
}

// sinkOf classifies the determinism sinks: exhibit emission, cache keys,
// and /v1 response bodies.
func (f *taintFacts) sinkOf(fn *types.Func) (desc string, takes func(int) bool, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", nil, false
	}
	mod := f.prog.ModPath
	all := func(int) bool { return true }
	switch fn.Pkg().Path() {
	case mod + "/internal/report":
		if fn.Name() == "AddRow" {
			return "the report emitter (*report.Table).AddRow", all, true
		}
	case mod + "/internal/serve":
		if fn.Name() == "WriteJSON" {
			return "a /v1 response body (WriteJSON)", func(i int) bool { return i == 2 }, true
		}
		if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
			if recvTypeName(sig.Recv().Type()) == "LRU" && (fn.Name() == "Get" || fn.Name() == "Put") {
				return "the decision-cache key ((*LRU)." + fn.Name() + ")", func(i int) bool { return i == 0 }, true
			}
		}
	}
	return "", nil, false
}
