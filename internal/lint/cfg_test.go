package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseBody parses a function body from a snippet of statements.
func parseBody(t *testing.T, stmts string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + stmts + "\n}"
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func TestCFGStraightLine(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "x := 1\ny := x\n_ = y"))
	if !cfg.Reachable()[cfg.Exit] {
		t.Fatalf("exit unreachable in straight-line code")
	}
	if len(cfg.Entry.Nodes) != 3 {
		t.Errorf("entry block has %d nodes, want 3", len(cfg.Entry.Nodes))
	}
}

func TestCFGExitReachability(t *testing.T) {
	cases := []struct {
		name      string
		stmts     string
		reachable bool
	}{
		{"plain return", "return", true},
		{"infinite loop", "for {\n}", false},
		{"loop with break", "for {\nbreak\n}", true},
		{"loop with cond", "for i := 0; i < 3; i++ {\n}", true},
		{"infinite loop with continue", "for {\ncontinue\n}", false},
		{"labeled break from nested", "outer:\nfor {\nfor {\nbreak outer\n}\n}", true},
		{"labeled continue stays inside", "outer:\nfor {\nfor {\ncontinue outer\n}\n}", false},
		{"empty select", "select {\n}", false},
		{"select with case", "var ch chan int\nselect {\ncase <-ch:\n}", true},
		// Panic routes to Exit: the function terminates (by crashing), and
		// golifecycle depends on the edge to keep panic paths out of the
		// Done intersection.
		{"panic", "panic(\"x\")", true},
		{"conditional panic", "var b bool\nif b {\npanic(\"x\")\n}", true},
		{"goto forward", "goto done\ndone:\nreturn", true},
		{"goto self loop", "again:\ngoto again", false},
		{"switch all terminate", "var x int\nswitch x {\ncase 1:\npanic(\"a\")\ndefault:\npanic(\"b\")\n}", true},
		{"switch no default", "var x int\nswitch x {\ncase 1:\npanic(\"a\")\n}", true},
		{"range can finish", "var xs []int\nfor range xs {\n}", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BuildCFG(parseBody(t, tc.stmts))
			if got := cfg.Reachable()[cfg.Exit]; got != tc.reachable {
				t.Errorf("exit reachable = %v, want %v", got, tc.reachable)
			}
		})
	}
}

func TestCFGDefersCollected(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "defer a()\nif true {\ndefer b()\n}"))
	if len(cfg.Defers) != 2 {
		t.Fatalf("collected %d defers, want 2", len(cfg.Defers))
	}
}

func TestCFGFallthrough(t *testing.T) {
	// Fallthrough links case 1 to case 2; a panic in case 2 then makes the
	// fallthrough path terminal, but case 2 is still reachable from the head
	// as well, so exit stays reachable only through case 3/no-match.
	cfg := BuildCFG(parseBody(t, "var x int\nswitch x {\ncase 1:\nfallthrough\ncase 2:\npanic(\"a\")\n}"))
	if !cfg.Reachable()[cfg.Exit] {
		t.Errorf("exit should stay reachable through the no-match path")
	}
}

// countFact counts statements for the dataflow engine test: join takes the
// max, so the fixpoint at exit is the longest path length in nodes.
type countFact int

func (c countFact) EqualFact(o Fact) bool { return c == o.(countFact) }

func TestForwardDataflow(t *testing.T) {
	// Two branches of different lengths; max-join at the merge sees the
	// longer one. The loop is bounded by the facts' finite range because
	// transfer only counts each block once per in-fact.
	body := parseBody(t, "var b bool\nif b {\na()\nb2()\n} else {\nc()\n}\nd()")
	cfg := BuildCFG(body)
	res := cfg.Forward(FlowProblem{
		Entry: countFact(0),
		Join: func(a, b Fact) Fact {
			if a.(countFact) > b.(countFact) {
				return a
			}
			return b
		},
		Transfer: func(blk *Block, in Fact) Fact {
			return in.(countFact) + countFact(len(blk.Nodes))
		},
	})
	out, ok := res.In[cfg.Exit]
	if !ok {
		t.Fatalf("no fact at exit")
	}
	// Entry block: var decl + cond (2 nodes). Then branch (2) vs else (1),
	// join block d() (1). Longest chain: 2+2+1 = 5.
	if out.(countFact) != 5 {
		t.Errorf("fact at exit = %d, want 5", out)
	}
}

func TestForwardDataflowUnreachable(t *testing.T) {
	body := parseBody(t, "return\na()")
	cfg := BuildCFG(body)
	res := cfg.Forward(FlowProblem{
		Entry:    countFact(0),
		Join:     func(a, b Fact) Fact { return a },
		Transfer: func(blk *Block, in Fact) Fact { return in },
	})
	for blk, in := range res.In {
		_ = in
		if !cfg.Reachable()[blk] {
			t.Errorf("unreachable block %d has a fact", blk.Index)
		}
	}
}

func TestCallGraph(t *testing.T) {
	mod, err := LoadModule("testdata/src/leakygo")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	g := BuildCallGraph(mod)
	byName := map[string]*CallNode{}
	for _, n := range g.SortedNodes() {
		byName[n.Fn.Name()] = n
	}
	run, ok := byName["Run"]
	if !ok {
		t.Fatalf("Run not in call graph")
	}
	foundSpin := false
	for _, c := range run.Callees {
		if c.Name() == "spin" {
			foundSpin = true
		}
	}
	if !foundSpin {
		t.Errorf("Run should reference spin (go statement target): %v", run.Callees)
	}

	// Reachability from Start: helper (static call) and step (transitively)
	// are reached with Start as witness; Run's spin is not.
	witness := g.Reachable([]*types.Func{byName["Start"].Fn})
	if witness[byName["helper"].Fn] != byName["Start"].Fn {
		t.Errorf("helper should be reachable from Start")
	}
	if witness[byName["step"].Fn] != byName["Start"].Fn {
		t.Errorf("step should be reachable from Start (through helper's goroutine literal)")
	}
	if _, ok := witness[byName["spin"].Fn]; ok {
		t.Errorf("spin should not be reachable from Start alone")
	}

	// FuncDecl resolves graph nodes back to their syntax.
	pkg, decl := mod.FuncDecl(byName["spin"].Fn)
	if pkg == nil || decl == nil || decl.Name.Name != "spin" {
		t.Errorf("FuncDecl(spin) = %v, %v", pkg, decl)
	}
}
