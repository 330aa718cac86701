package lint

// A module-local call graph over the loader's type-checked packages: one
// node per declared function or method, edges for every statically resolved
// reference to another module function — calls, method values and function
// values alike (a function whose value escapes may be called, so
// reachability must include it). Dynamic dispatch through interfaces and
// function-typed parameters is not resolved; the interprocedural analyzers
// built on top (golifecycle's exported-reachability, lockorder's acquisition
// summaries, ctxfirst's blocking method values) are deliberately
// under-approximating linters, not verifiers.

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// CallNode is one declared function or method of the module.
type CallNode struct {
	// Fn is the function's type object (the graph key).
	Fn *types.Func
	// Pkg is the package declaring it and Decl its syntax. References
	// inside nested function literals are attributed to the enclosing
	// declaration (the literal runs with its closure, but it is reachable
	// exactly when the declaration is).
	Pkg  *Package
	Decl *ast.FuncDecl
	// Callees lists the module-local functions this one references,
	// deduplicated, in source order of first reference.
	Callees []*types.Func
}

// CallGraph is the module-local call graph; build with BuildCallGraph.
type CallGraph struct {
	// Nodes maps every declared module function to its node.
	Nodes map[*types.Func]*CallNode
}

// BuildCallGraph constructs the call graph of a loaded module.
func BuildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*CallNode{}}
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CallNode{Fn: fn, Pkg: pkg, Decl: fd}
				if fd.Body != nil {
					seen := map[*types.Func]bool{}
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						ident, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						callee, ok := pkg.Info.Uses[ident].(*types.Func)
						if !ok || !moduleLocal(mod, callee) || seen[callee] {
							return true
						}
						seen[callee] = true
						node.Callees = append(node.Callees, callee)
						return true
					})
				}
				g.Nodes[fn] = node
			}
		}
	}
	return g
}

// moduleLocal reports whether the function is declared in the module under
// analysis (as opposed to the standard library).
func moduleLocal(mod *Module, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == mod.Path || len(path) > len(mod.Path) && path[:len(mod.Path)+1] == mod.Path+"/"
}

// Reachable returns every function reachable from the roots along call/
// reference edges (roots included), mapped to a witness root that reaches
// it — the name the diagnostics cite.
func (g *CallGraph) Reachable(roots []*types.Func) map[*types.Func]*types.Func {
	witness := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := witness[r]; ok {
			continue
		}
		witness[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if node == nil {
			continue
		}
		for _, callee := range node.Callees {
			if _, ok := witness[callee]; ok {
				continue
			}
			witness[callee] = witness[fn]
			queue = append(queue, callee)
		}
	}
	return witness
}

// SortedNodes returns the graph's nodes ordered by source position, the
// stable iteration order every module analyzer reports in.
func (g *CallGraph) SortedNodes() []*CallNode {
	nodes := make([]*CallNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })
	return nodes
}

// funcIndex lazily maps every declared module function to its package and
// syntax, for analyzers that chase a types.Func across package boundaries
// (ctxfirst's blocking method values, golifecycle's goroutine bodies) without
// paying for a full call graph.
type funcIndex struct {
	once sync.Once
	m    map[*types.Func]funcSite
}

type funcSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// FuncDecl resolves a function object to its declaring package and syntax,
// or (nil, nil) when fn is not a declared module function (stdlib, or a
// function literal).
func (m *Module) FuncDecl(fn *types.Func) (*Package, *ast.FuncDecl) {
	m.funcs.once.Do(func() {
		m.funcs.m = map[*types.Func]funcSite{}
		for _, pkg := range m.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						m.funcs.m[obj] = funcSite{pkg: pkg, decl: fd}
					}
				}
			}
		}
	})
	site := m.funcs.m[fn]
	return site.pkg, site.decl
}
