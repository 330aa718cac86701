package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GoLifecycle checks the whole life of every go statement — spawn, run,
// completion, join — on the parallel regions hb.go discovers. Four rules:
//
//  1. Joined spawn. Outside internal/par (the one package whose job is
//     goroutine lifecycle management), every go statement must be lexically
//     paired with a join — a sync.WaitGroup.Wait, a channel receive, or a
//     range over a channel — in its innermost enclosing function, so no
//     solver entry point can return while its workers are still running
//     (the failure mode behind a pool Close racing an in-flight For).
//  2. Termination. A go statement reachable from an exported function of a
//     library package must have a way to terminate: its body can run to
//     completion (the CFG exit is reachable), or it blocks on something the
//     outside world can fire — a ctx.Done, a channel receive or range
//     (closing the channel unblocks it), a select with at least one case. A
//     goroutine that spins forever outlives every solve call that spawned
//     it, and under the paper's repeated-bisection driver that is an
//     unbounded leak. Reachability follows the module call graph, so an
//     exported entry point is accountable for goroutines its helpers start.
//  3. Done on every path. A goroutine literal that calls wg.Done on some
//     path must call it on every path — an early return that skips Done
//     leaves Wait blocked forever. This is a must-analysis over the
//     goroutine body's CFG (intersection at joins); a deferred Done
//     satisfies every path at once.
//  4. Add before spawn. wg.Add must happen before the go statement, not
//     inside the goroutine: if the spawner reaches Wait before the goroutine
//     is scheduled, the Add races the Wait (and a Wait that returns early
//     panics on the late Add). Flagged whenever the enclosing declaration
//     Waits on the same WaitGroup.
var GoLifecycle = &Analyzer{
	Name:      "golifecycle",
	Doc:       "go statements join outside internal/par, terminate when reachable from exported functions, reach WaitGroup Done on every path and Add before spawning",
	RunModule: runGoLifecycle,
}

func runGoLifecycle(pass *ModulePass) {
	mod := pass.Mod
	graph := BuildCallGraph(mod)
	nodes := graph.SortedNodes()

	var roots []*types.Func
	for _, n := range nodes {
		if !n.Pkg.IsMain() && n.Decl.Name.IsExported() {
			roots = append(roots, n.Fn)
		}
	}
	witness := graph.Reachable(roots)

	for _, n := range nodes {
		pkg := n.Pkg
		var waited map[*types.Var]bool // rule 4's Waits, computed on first use
		for _, r := range regionsOf(mod, pkg, n.Fn, n.Decl) {
			if r.Kind != RegionGo {
				continue
			}
			g := r.Site.(*ast.GoStmt)
			checkJoined(pass, r)
			if root := witness[n.Fn]; root != nil && r.Body() != nil && !terminates(mod, r.BodyPkg(), r.Body(), 3) {
				pass.Reportf(g.Pos(), "goroutine can never terminate: no path to return and no ctx.Done, channel receive, or select to unblock it (reachable from exported %s)",
					root.Name())
			}
			if r.Lit != nil {
				if waited == nil {
					waited = waitedGroups(pkg, n.Decl.Body)
				}
				checkGoroutineBalance(pass, pkg, g, r.Lit.Body, waited)
			}
		}
	}

	// A function literal in a package-level initializer belongs to no
	// declaration; of the four rules only the join rule reaches it.
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				ast.Inspect(gd, func(n ast.Node) bool {
					lit, ok := n.(*ast.FuncLit)
					if !ok {
						return true
					}
					for _, r := range regionsOf(mod, pkg, nil, &ast.FuncDecl{Body: lit.Body}) {
						if r.Kind == RegionGo {
							checkJoined(pass, r)
						}
					}
					return false
				})
			}
		}
	}
}

// checkJoined applies rule 1 to one go region.
func checkJoined(pass *ModulePass, r *ParRegion) {
	if r.Pkg.RelPath == "internal/par" || strings.HasSuffix(r.Pkg.Path, "/internal/par") {
		return
	}
	if !hasJoin(r.Pkg, r.Encl) {
		pass.Reportf(r.Site.Pos(),
			"go statement without a join (WaitGroup.Wait, channel receive or range) in the same function; spawn through internal/par or add an explicit barrier")
	}
}

// hasJoin reports whether the function body contains a joining construct:
// a sync.WaitGroup Wait call, a channel receive, or a range over a channel.
func hasJoin(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupWait(pkg, n) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if isChanExpr(pkg, n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isChanExpr reports whether the expression has a channel type.
func isChanExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// terminates reports whether a goroutine body has a termination path:
// the CFG exit is reachable, or the body (or a module callee, up to the
// given call depth) blocks on something that can be fired from outside —
// a channel receive, a range over a channel, a select with at least one
// case, or ctx.Done. An empty select{} blocks forever and is NOT a
// termination path.
func terminates(mod *Module, pkg *Package, body *ast.BlockStmt, depth int) bool {
	cfg := BuildCFG(body)
	if cfg.Reachable()[cfg.Exit] {
		return true
	}
	return blocksOnSignal(mod, pkg, body, depth)
}

// blocksOnSignal is the signal half of terminates: does this body (or its
// module callees, depth-limited) contain a channel receive, channel range,
// non-empty select, or ctx.Done?
func blocksOnSignal(mod *Module, pkg *Package, body *ast.BlockStmt, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if isChanExpr(pkg, n.X) {
				found = true
			}
		case *ast.SelectStmt:
			if n.Body != nil && len(n.Body.List) > 0 {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Done" && isContextExpr(pkg, n.X) {
				found = true
			}
		case *ast.CallExpr:
			if depth > 0 {
				if callee := staticCallee(pkg, n); callee != nil && moduleLocal(mod, callee) {
					if cpkg, cdecl := mod.FuncDecl(callee); cdecl != nil && cdecl.Body != nil {
						if blocksOnSignal(mod, cpkg, cdecl.Body, depth-1) {
							found = true
						}
					}
				}
			}
		}
		return !found
	})
	return found
}

// isContextExpr reports whether the expression has type context.Context.
func isContextExpr(pkg *Package, e ast.Expr) bool {
	t, ok := pkg.Info.Types[e]
	if !ok || t.Type == nil {
		return false
	}
	named, ok := t.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// waitedGroups collects the WaitGroups a declaration Waits on in its own
// body (not inside nested function literals).
func waitedGroups(pkg *Package, body *ast.BlockStmt) map[*types.Var]bool {
	waited := map[*types.Var]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if v, op := wgOp(pkg, call); op == "Wait" {
				waited[v] = true
			}
		}
		return true
	})
	return waited
}

// doneFact is the must-have-called-Done set; all=true is top (a path that
// panics crashes the program regardless, so it should not veto the
// intersection).
type doneFact struct {
	all  bool
	done map[*types.Var]bool
}

func (f doneFact) EqualFact(other Fact) bool {
	o := other.(doneFact)
	if f.all != o.all || len(f.done) != len(o.done) {
		return false
	}
	for v := range f.done {
		if !o.done[v] {
			return false
		}
	}
	return true
}

func joinDoneFacts(a, b Fact) Fact {
	fa, fb := a.(doneFact), b.(doneFact)
	if fa.all {
		return fb
	}
	if fb.all {
		return fa
	}
	inter := map[*types.Var]bool{}
	for v := range fa.done {
		if fb.done[v] {
			inter[v] = true
		}
	}
	return doneFact{done: inter}
}

// checkGoroutineBalance applies rules 3 and 4 to one goroutine literal.
func checkGoroutineBalance(pass *ModulePass, pkg *Package, g *ast.GoStmt, body *ast.BlockStmt, waited map[*types.Var]bool) {
	cfg := BuildCFG(body)

	// Rule 4: Add inside the goroutine on a WaitGroup the spawner waits on.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, op := wgOp(pkg, call); op == "Add" && waited[v] {
			pass.Reportf(call.Pos(), "%s.Add inside the goroutine races with the spawner's Wait; call Add before the go statement", v.Name())
		}
		return true
	})

	// Classify where Done calls sit: on straight-line paths (subject to the
	// must-analysis), in defers (satisfy every path), or inside nested
	// non-deferred closures (out of scope — their execution is dynamic).
	shallowDone := map[*types.Var]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if v, op := wgOp(pkg, call); op == "Done" {
				shallowDone[v] = true
			}
		}
		return true
	})
	deferDone := map[*types.Var]bool{}
	for _, d := range cfg.Defers {
		ast.Inspect(d, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if v, op := wgOp(pkg, call); op == "Done" {
					deferDone[v] = true
				}
			}
			return true
		})
	}

	var need []*types.Var
	for v := range shallowDone {
		if !deferDone[v] {
			need = append(need, v)
		}
	}
	if len(need) == 0 {
		return
	}
	sort.Slice(need, func(i, j int) bool { return need[i].Pos() < need[j].Pos() })

	res := cfg.Forward(FlowProblem{
		Entry: doneFact{done: map[*types.Var]bool{}},
		Join:  joinDoneFacts,
		Transfer: func(b *Block, in Fact) Fact {
			cur := in.(doneFact)
			done := cur.done
			copied := false
			for _, stmt := range b.Nodes {
				inspectShallow(stmt, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if v, op := wgOp(pkg, call); op == "Done" {
						if !copied {
							nd := make(map[*types.Var]bool, len(done)+1)
							for k := range done {
								nd[k] = true
							}
							done = nd
							copied = true
						}
						done[v] = true
					}
					return true
				})
				if endsInPanic(stmt) {
					return doneFact{all: true}
				}
			}
			return doneFact{all: cur.all, done: done}
		},
	})
	exitIn, reached := res.In[cfg.Exit]
	if !reached {
		return // the goroutine never exits; rule 2's department
	}
	exit := exitIn.(doneFact)
	if exit.all {
		return
	}
	for _, v := range need {
		if !exit.done[v] {
			pass.Reportf(g.Pos(), "%s.Done is skipped on some path of this goroutine (early return or branch); a missed Done blocks Wait forever — prefer defer %s.Done()", v.Name(), v.Name())
		}
	}
}

// endsInPanic reports whether the statement is a call to panic (the CFG
// routes such blocks straight to exit; the process is crashing, so the
// must-analysis treats the path as satisfied).
func endsInPanic(stmt ast.Node) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && isPanicCall(call)
}
