package lint

import (
	"go/ast"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// want is one expected diagnostic, parsed from a `// want "regex"` comment.
// A comment may list several quoted patterns (`// want "a" "b"`) when one
// line carries several findings; each pattern is a want of its own.
type want struct {
	file    string // module-relative
	line    int
	pattern *regexp.Regexp
}

var (
	wantRe    = regexp.MustCompile(`// want((?: +"[^"]*")+)`)
	patternRe = regexp.MustCompile(`"([^"]*)"`)
)

// runCase loads one testdata module, runs the named analyzers, and checks
// the diagnostics against the module's want annotations: every want must be
// matched by at least one diagnostic on its line, and every diagnostic must
// be covered by a want.
func runCase(t *testing.T, dir string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	root := filepath.Join("testdata", "src", dir)
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	diags := RunOnModule(mod, analyzers)

	var wants []want
	for _, pkg := range mod.Packages {
		files := make([]*ast.File, 0, len(pkg.Files)+len(pkg.TestFiles))
		files = append(files, pkg.Files...)
		files = append(files, pkg.TestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					rel, _ := filepath.Rel(mod.Root, pos.Filename)
					for _, p := range patternRe.FindAllStringSubmatch(m[1], -1) {
						re, err := regexp.Compile(p[1])
						if err != nil {
							t.Fatalf("bad want regex %q: %v", p[1], err)
						}
						wants = append(wants, want{file: filepath.ToSlash(rel), line: pos.Line, pattern: re})
					}
				}
			}
		}
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		covered := false
		for i, w := range wants {
			if w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
				matched[i] = true
				covered = true
			}
		}
		if !covered {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.pattern)
		}
	}
	return diags
}

func TestNoRandGlobal(t *testing.T) {
	diags := runCase(t, "norand", NoRandGlobal)
	// Two findings: the library import and the test-file import. The
	// internal/rng and clean packages stay quiet.
	if len(diags) != 2 {
		t.Errorf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestCtxFirst(t *testing.T) {
	diags := runCase(t, "ctxfirst", CtxFirst)
	// Misordered, RunAll, Mint, plus the PR 5 regressions: variadic ctx and
	// the blocking method value handed to a helper.
	if len(diags) != 5 {
		t.Errorf("want 5 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestAtomicMix(t *testing.T) {
	diags := runCase(t, "atomicmix", AtomicMix)
	// The two plain accesses in gate (the PR 4 barrier-handoff regression
	// shape), the cross-package plain read in reader, and the four
	// indirect shapes (through-local pointer, func-value local, plain
	// deref of the alias, promoted embedded word).
	if len(diags) != 7 {
		t.Errorf("want 7 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestSharedWrite(t *testing.T) {
	diags := runCase(t, "sharedwrite", SharedWrite)
	// Handoff (self-parallel + spawner window, both on the write line),
	// SlotMix, Counter, Sibling, HalfLocked, the unexcused hbimpl twin and
	// the stray directive. The mini pool and every clean package certify.
	if len(diags) != 8 {
		t.Errorf("want 8 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestCancelPoll(t *testing.T) {
	diags := runCase(t, "cancelpoll", CancelPoll)
	// SolveBad never polls, SolveHuge's stride overflows the bound, and
	// SolveOpaque's guard is unprovable; the budget, modulo, mask and
	// delegate idioms all certify.
	if len(diags) != 3 {
		t.Errorf("want 3 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestLockOrder(t *testing.T) {
	diags := runCase(t, "lockorder", LockOrder)
	// One edge per direction of the par/dp cycle; the second is visible only
	// through TouchSched's interprocedural acquisition summary.
	if len(diags) != 2 {
		t.Errorf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestLeakyGo(t *testing.T) {
	diags := runCase(t, "leakygo", GoLifecycle)
	// Three goroutines that can never terminate, plus the join rule on the
	// five go statements whose function has no receive or Wait at all.
	if len(diags) != 8 {
		t.Errorf("want 8 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestWaitBalance(t *testing.T) {
	diags := runCase(t, "waitbalance", GoLifecycle)
	if len(diags) != 2 {
		t.Errorf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestHotAlloc(t *testing.T) {
	diags := runCase(t, "hotalloc", Escape)
	// The append and the two boxings in Leaky plus the stray directive; the
	// same calls on ColdBail's error bail-out stay quiet.
	if len(diags) != 4 {
		t.Errorf("want 4 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestBoundsProof(t *testing.T) {
	diags := runCase(t, "boundsproof", BoundsProof)
	// The raw index, the untracked field length, and the raw slice; every
	// guarded twin stays quiet.
	if len(diags) != 3 {
		t.Errorf("want 3 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestIntOverflow(t *testing.T) {
	diags := runCase(t, "intoverflow", IntOverflow)
	// The raw sum, the reachable helper's multiply, and the stray
	// directive; the guarded twins and the unreachable function stay quiet.
	if len(diags) != 3 {
		t.Errorf("want 3 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestEscape(t *testing.T) {
	diags := runCase(t, "escape", Escape)
	// Returned literal, non-constant make, stored closure, map make, and the
	// append that stores the closure; the stack-local twins and the
	// cold-branch literal stay quiet.
	if len(diags) != 5 {
		t.Errorf("want 5 diagnostics, got %d: %v", len(diags), diags)
	}
}

// TestSuppressionScope pins down directive scoping across analyzers: a line
// that trips both escape and boundsproof, under a directive naming only
// escape, must still produce the boundsproof finding.
func TestSuppressionScope(t *testing.T) {
	root := filepath.Join("testdata", "src", "scopeignore")
	diags, err := RunAnalyzers(root, All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the surviving boundsproof finding, got %d: %v", len(diags), diags)
	}
	if diags[0].Check != BoundsProof.Name {
		t.Errorf("surviving finding is %s, want %s: %s", diags[0].Check, BoundsProof.Name, diags[0])
	}
}

func TestGoHygiene(t *testing.T) {
	diags := runCase(t, "gohygiene", GoLifecycle)
	if len(diags) != 1 {
		t.Errorf("want 1 diagnostic, got %d: %v", len(diags), diags)
	}
}

func TestMapOrder(t *testing.T) {
	diags := runCase(t, "maporder", MapOrder)
	if len(diags) != 2 {
		t.Errorf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestNakedPanic(t *testing.T) {
	diags := runCase(t, "nakedpanic", NakedPanic)
	if len(diags) != 1 {
		t.Errorf("want 1 diagnostic, got %d: %v", len(diags), diags)
	}
}

func TestMutexByValue(t *testing.T) {
	diags := runCase(t, "mutexbyvalue", MutexByValue)
	if len(diags) != 8 {
		t.Errorf("want 8 diagnostics, got %d: %v", len(diags), diags)
	}
}

// TestSuppression proves the directive contract: a well-formed
// //lint:ignore silences exactly its check on the same or next line, a
// directive without a reason or naming an unknown check is itself reported
// and silences nothing.
func TestSuppression(t *testing.T) {
	root := filepath.Join("testdata", "src", "suppress")
	diags, err := RunAnalyzers(root, All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	var lifecycle, directive []Diagnostic
	for _, d := range diags {
		switch d.Check {
		case GoLifecycle.Name:
			lifecycle = append(lifecycle, d)
		case DirectiveCheck:
			directive = append(directive, d)
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	// Detach and DetachTrailing are suppressed; NoReason and WrongCheck
	// carry invalid directives, so their findings survive.
	if len(lifecycle) != 2 {
		t.Errorf("want 2 surviving golifecycle diagnostics, got %d: %v", len(lifecycle), lifecycle)
	}
	if len(directive) != 2 {
		t.Fatalf("want 2 directive diagnostics, got %d: %v", len(directive), directive)
	}
	if !strings.Contains(directive[0].Message, "missing a reason") {
		t.Errorf("first directive diagnostic should flag the missing reason, got %q", directive[0].Message)
	}
	if !strings.Contains(directive[1].Message, `unknown check "nosuchcheck"`) {
		t.Errorf("second directive diagnostic should flag the unknown check, got %q", directive[1].Message)
	}
}

// TestStaleSuppressions proves the suppression audit: directives that
// suppressed a finding come back Used, the one whose finding is gone comes
// back stale, and malformed directives are not part of the audit at all
// (they are findings in their own right).
func TestStaleSuppressions(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	_, _, sups := RunOnModuleFull(mod, All(), 1)
	var used, stale int
	for _, s := range sups {
		if s.Used {
			used++
			continue
		}
		stale++
		if s.Check != GoLifecycle.Name || !strings.Contains(s.Reason, "outlived") {
			t.Errorf("unexpected stale suppression: %+v", s)
		}
	}
	// Detach and DetachTrailing are used; Stale is not. NoReason and
	// WrongCheck are malformed and never become suppressions.
	if used != 2 || stale != 1 {
		t.Errorf("want 2 used / 1 stale suppressions, got %d used / %d stale: %v", used, stale, sups)
	}
}

// TestRepoIsClean is the merged-tree acceptance gate in test form: the
// repository itself must produce zero findings, so scripts/check.sh's
// schedlint step exits 0.
func TestRepoIsClean(t *testing.T) {
	diags, err := RunAnalyzers(filepath.Join("..", ".."), All())
	if err != nil {
		t.Fatalf("RunAnalyzers(repo): %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo tree finding: %s", d)
	}
}

// TestLoadModuleParallel pins down that the wave-parallel loader produces
// the same module as a sequential load: same packages, same files, type
// information everywhere.
func TestLoadModuleParallel(t *testing.T) {
	seq, err := LoadModuleParallel(filepath.Join("..", ".."), 1)
	if err != nil {
		t.Fatalf("sequential load: %v", err)
	}
	par, err := LoadModuleParallel(filepath.Join("..", ".."), 4)
	if err != nil {
		t.Fatalf("parallel load: %v", err)
	}
	if len(seq.Packages) != len(par.Packages) {
		t.Fatalf("package count differs: %d sequential, %d parallel", len(seq.Packages), len(par.Packages))
	}
	for i := range seq.Packages {
		s, p := seq.Packages[i], par.Packages[i]
		if s.RelPath != p.RelPath {
			t.Fatalf("package %d: %q vs %q", i, s.RelPath, p.RelPath)
		}
		if len(s.Files) != len(p.Files) || len(s.TestFiles) != len(p.TestFiles) {
			t.Errorf("%s: file counts differ (%d/%d vs %d/%d)", s.RelPath, len(s.Files), len(s.TestFiles), len(p.Files), len(p.TestFiles))
		}
		if (s.Types == nil) != (p.Types == nil) {
			t.Errorf("%s: type info presence differs", s.RelPath)
		}
	}
}

// TestParallelRunMatchesSequential is the determinism gate for the fan-out
// runner: the same module analyzed with 1 and 4 workers must yield
// bit-identical diagnostics, including their order.
func TestParallelRunMatchesSequential(t *testing.T) {
	for _, dir := range []string{"hotalloc", "waitbalance", "lockorder"} {
		mod, err := LoadModule(filepath.Join("testdata", "src", dir))
		if err != nil {
			t.Fatalf("LoadModule(%s): %v", dir, err)
		}
		seq := RunOnModule(mod, All())
		par, timings := RunOnModuleOpts(mod, All(), 4)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: parallel diagnostics differ\nseq: %v\npar: %v", dir, seq, par)
		}
		if len(timings) != len(All()) {
			t.Errorf("%s: %d timings, want one per analyzer", dir, len(timings))
		}
	}
}

// TestLoader sanity-checks the module loader on the repository itself:
// module path, package discovery, type information and test-file parsing.
func TestLoader(t *testing.T) {
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if mod.Path != "repro" {
		t.Errorf("module path = %q, want repro", mod.Path)
	}
	byRel := map[string]*Package{}
	for _, p := range mod.Packages {
		byRel[p.RelPath] = p
	}
	for _, rel := range []string{"solver", "internal/dp", "internal/par", "internal/lint", "cmd/schedlint"} {
		p, ok := byRel[rel]
		if !ok {
			t.Fatalf("package %s not loaded", rel)
		}
		if p.Types == nil || len(p.Files) == 0 {
			t.Errorf("package %s has no type info or files", rel)
		}
	}
	if p := byRel["internal/dp"]; len(p.TestFiles) == 0 {
		t.Errorf("internal/dp test files not parsed")
	}
	if !byRel["cmd/schedlint"].IsMain() {
		t.Errorf("cmd/schedlint should be package main")
	}
	if byRel["solver"].IsMain() {
		t.Errorf("solver should not be package main")
	}
}
