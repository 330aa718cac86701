package lint

// Control-flow graphs for the dataflow-based analyzers (ALGORITHM.md §11).
//
// BuildCFG lowers one function body into basic blocks connected by edges
// that follow Go's structured control flow: if/else, the three for-loop
// forms, range, (type) switch with fallthrough, select, labeled
// break/continue, goto, return and panic. The construction is purely
// syntactic — no type information — so it can run on any parsed body; the
// analyses layer type facts on top through their transfer functions.
//
// Two deliberate modeling choices keep the analyses honest:
//
//   - Deferred statements do not appear on the normal edges. They execute at
//     every function exit, so they are collected in CFG.Defers and analyses
//     account for them when interpreting the exit block (golifecycle treats
//     a deferred wg.Done as satisfying every path; lockorder does not drop a
//     lock at a `defer mu.Unlock()` because the mutex stays held until
//     return).
//   - Nested function literals are opaque: their bodies belong to a
//     different activation and get their own CFG when an analyzer cares
//     (golifecycle builds one per goroutine body). inspectShallow is the
//     shared walker that prunes them.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line sequence of statements
// (and the governing expressions of the control statements that end it) with
// the outgoing control-flow edges.
type Block struct {
	// Index is the block's position in CFG.Blocks (stable, creation order).
	Index int
	// Nodes holds the statements and control expressions executed when the
	// block runs, in execution order. Compound statements contribute only
	// their leaf parts (an IfStmt contributes its Init and Cond; the
	// branches are separate blocks), so walking every block's Nodes visits
	// each executable node exactly once.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Entry is the first
// block executed; Exit is a synthetic block reached by falling off the end,
// by every return statement and by calls to the panic builtin.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists every defer statement in the body, in source order. The
	// deferred calls run at function exit (when their defer statement was
	// reached), so analyses consult this list when interpreting Exit.
	Defers []*ast.DeferStmt
}

// Reachable returns the set of blocks reachable from Entry along edges.
func (c *CFG) Reachable() map[*Block]bool {
	seen := map[*Block]bool{c.Entry: true}
	stack := []*Block{c.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// cfgLoop is one entry of the builder's control stack: the jump targets a
// break or continue statement resolves to, plus the label (if any) binding
// them for labeled branches. Switch and select entries have a nil cont.
type cfgLoop struct {
	label string
	brk   *Block
	cont  *Block
}

type cfgBuilder struct {
	c   *CFG
	cur *Block // nil after a terminator (return/panic/branch)
	// loops is the stack of enclosing breakable/continuable statements.
	loops []cfgLoop
	// labels maps label names to their blocks (created on demand so forward
	// gotos resolve).
	labels map[string]*Block
	// pendingLabel is the label of the LabeledStmt currently being lowered,
	// consumed by the next loop/switch/select statement.
	pendingLabel string
	// nextCase is the following case clause's block while lowering a switch
	// body, the target of a fallthrough statement.
	nextCase *Block
}

// BuildCFG constructs the control-flow graph of a function body. A nil body
// (declaration without implementation) yields a two-block graph whose entry
// is also connected to exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{}
	b := &cfgBuilder{c: c, labels: map[string]*Block{}}
	c.Entry = b.newBlock()
	c.Exit = &Block{}
	b.cur = c.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(c.Exit)
	c.Exit.Index = len(c.Blocks)
	c.Blocks = append(c.Blocks, c.Exit)
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

// jump links the current block to target and is a no-op after a terminator.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
}

// startBlock makes target the current block (typically after jump(target)).
func (b *cfgBuilder) startBlock(target *Block) { b.cur = target }

// add appends an executed node to the current block; statements after a
// terminator are unreachable and land in a fresh predecessor-less block so
// analyses still see their nodes.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findLoop resolves a break (wantCont=false) or continue (wantCont=true)
// to its target block; label "" selects the innermost candidate.
func (b *cfgBuilder) findLoop(label string, wantCont bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		l := b.loops[i]
		if label != "" && l.label != label {
			continue
		}
		if wantCont {
			if l.cont != nil {
				return l.cont
			}
			if label != "" {
				return nil
			}
			continue // break-only entry (switch/select); keep looking
		}
		return l.brk
	}
	return nil
}

// takeLabel consumes the pending label for the loop/switch being lowered.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.startBlock(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.c.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.DeferStmt:
		b.add(s)
		b.c.Defers = append(b.c.Defers, s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.c.Exit)
			b.cur = nil
		}
	default:
		// Assignments, declarations, sends, inc/dec, go statements, empty
		// statements: straight-line nodes.
		b.add(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	var target *Block
	switch s.Tok {
	case token.BREAK:
		target = b.findLoop(label, false)
	case token.CONTINUE:
		target = b.findLoop(label, true)
	case token.GOTO:
		if s.Label != nil {
			target = b.labelBlock(s.Label.Name)
		}
	case token.FALLTHROUGH:
		target = b.nextCase
	}
	if target != nil {
		b.jump(target)
	}
	// A branch with no resolvable target (malformed source) just terminates
	// the block; the tree would not compile anyway.
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	join := b.newBlock()
	then := b.newBlock()
	cond.Succs = append(cond.Succs, then)
	b.startBlock(then)
	b.stmtList(s.Body.List)
	b.jump(join)
	if s.Else != nil {
		els := b.newBlock()
		cond.Succs = append(cond.Succs, els)
		b.startBlock(els)
		b.stmt(s.Else)
		b.jump(join)
	} else {
		cond.Succs = append(cond.Succs, join)
	}
	b.startBlock(join)
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.jump(head)
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	head = b.cur // add may have replaced an unreachable head
	exit := b.newBlock()
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}
	body := b.newBlock()
	head.Succs = append(head.Succs, body)
	if s.Cond != nil {
		head.Succs = append(head.Succs, exit)
	}
	b.loops = append(b.loops, cfgLoop{label: label, brk: exit, cont: cont})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	if post != nil {
		b.jump(post)
		b.startBlock(post)
		b.add(s.Post)
		b.jump(head)
	} else {
		b.jump(head)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(exit)
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	// The head carries the ranged expression (analyses inspect its type to
	// recognize channel ranges) and the per-iteration key/value assignment.
	head := b.newBlock()
	b.jump(head)
	b.startBlock(head)
	b.add(s.X)
	exit := b.newBlock()
	body := b.newBlock()
	head.Succs = append(head.Succs, body, exit)
	b.loops = append(b.loops, cfgLoop{label: label, brk: exit, cont: head})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	b.jump(head)
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(exit)
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(label, s.Body, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt, bool) {
		return cc.List, cc.Body, cc.List == nil
	})
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(label, s.Body, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt, bool) {
		return cc.List, cc.Body, cc.List == nil
	})
}

// caseClauses lowers a switch body: one block per clause, all successors of
// the head, a shared join as the break target, fallthrough edges between
// consecutive clauses, and a head→join edge when there is no default.
func (b *cfgBuilder) caseClauses(label string, body *ast.BlockStmt, parts func(*ast.CaseClause) ([]ast.Expr, []ast.Stmt, bool)) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()
	var clauses []*ast.CaseClause
	for _, st := range body.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		head.Succs = append(head.Succs, blocks[i])
	}
	hasDefault := false
	b.loops = append(b.loops, cfgLoop{label: label, brk: join})
	savedNext := b.nextCase
	for i, cc := range clauses {
		exprs, stmts, isDefault := parts(cc)
		if isDefault {
			hasDefault = true
		}
		b.startBlock(blocks[i])
		for _, e := range exprs {
			b.add(e)
		}
		if i+1 < len(clauses) {
			b.nextCase = blocks[i+1]
		} else {
			b.nextCase = nil
		}
		b.stmtList(stmts)
		b.jump(join)
	}
	b.nextCase = savedNext
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault {
		head.Succs = append(head.Succs, join)
	}
	b.startBlock(join)
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()
	b.loops = append(b.loops, cfgLoop{label: label, brk: join})
	for _, st := range s.Body.List {
		cc, ok := st.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		head.Succs = append(head.Succs, blk)
		b.startBlock(blk)
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(join)
	}
	b.loops = b.loops[:len(b.loops)-1]
	// A select with no clauses blocks forever: join stays unreachable, which
	// is exactly what the leak analysis wants to see.
	b.startBlock(join)
}

// isPanicCall reports whether the expression is a call of the panic builtin
// (by name; shadowing panic with a function would defeat the heuristic, and
// nothing in a sane tree does).
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	ident, ok := call.Fun.(*ast.Ident)
	return ok && ident.Name == "panic"
}

// inspectShallow walks the node like ast.Inspect but does not descend into
// nested function literals (their bodies execute on a different activation)
// or deferred statements (they execute at function exit; see CFG.Defers).
// The visit function's return value controls descent exactly as in
// ast.Inspect.
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		return visit(n)
	})
}
