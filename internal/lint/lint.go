package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// Diagnostic is one finding. Positions are relative to the module root so
// output is stable regardless of where schedlint runs.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: check: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named invariant check. Exactly one of Run and RunModule
// is set: Run analyzers see one package at a time, RunModule analyzers see
// the whole module at once (for interprocedural checks that chase calls
// across package boundaries, like atomicmix, lockorder and golifecycle).
type Analyzer struct {
	// Name is the check identifier used in output and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule inspects the whole module in one pass.
	RunModule func(*ModulePass)
	// IncludeTests makes Files() also yield the package's _test.go files.
	// Those are parsed but not type-checked, so only purely syntactic
	// analyzers may set this.
	IncludeTests bool
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package
	diags    *[]Diagnostic
}

// Files yields the files the analyzer should inspect: the type-checked
// non-test files, plus the parsed test files when IncludeTests is set.
func (p *Pass) Files() []*ast.File {
	if !p.Analyzer.IncludeTests {
		return p.Pkg.Files
	}
	out := make([]*ast.File, 0, len(p.Pkg.Files)+len(p.Pkg.TestFiles))
	out = append(out, p.Pkg.Files...)
	out = append(out, p.Pkg.TestFiles...)
	return out
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	reportAt(p.Mod, p.Analyzer.Name, pos, p.diags, format, args...)
}

// ModulePass carries one module-level analyzer's run over a whole module.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	reportAt(p.Mod, p.Analyzer.Name, pos, p.diags, format, args...)
}

func reportAt(mod *Module, check string, pos token.Pos, diags *[]Diagnostic, format string, args ...any) {
	position := mod.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(mod.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	*diags = append(*diags, Diagnostic{
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file   string // module-relative path
	line   int
	col    int
	check  string
	reason string
}

// Suppression is one well-formed //lint:ignore directive together with
// whether it actually suppressed a diagnostic in this run. A directive with
// Used == false is stale: the finding it once excused is gone, and keeping
// the comment would teach readers to ignore directives.
type Suppression struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Check  string `json:"check"`
	Reason string `json:"reason"`
	Used   bool   `json:"used"`
}

// DirectiveCheck is the pseudo-check name under which malformed or unknown
// //lint:ignore directives are reported; it cannot itself be suppressed.
const DirectiveCheck = "lintdirective"

const ignorePrefix = "//lint:ignore"

// collectDirectives scans every comment of every parsed file (tests
// included: syntactic checks fire there too) for //lint:ignore directives.
// A well-formed directive is "//lint:ignore <check> <reason>" where <check>
// names a known analyzer and <reason> is non-empty; anything else is itself
// a diagnostic, so silent no-op suppressions cannot rot in the tree.
func collectDirectives(mod *Module, known map[string]bool, diags *[]Diagnostic) []ignoreDirective {
	var out []ignoreDirective
	for _, pkg := range mod.Packages {
		files := make([]*ast.File, 0, len(pkg.Files)+len(pkg.TestFiles))
		files = append(files, pkg.Files...)
		files = append(files, pkg.TestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					file := pos.Filename
					if rel, err := filepath.Rel(mod.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
						file = filepath.ToSlash(rel)
					}
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // some other //lint:ignoreXxx token, not ours
					}
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						*diags = append(*diags, Diagnostic{
							File: file, Line: pos.Line, Col: pos.Column, Check: DirectiveCheck,
							Message: "malformed directive: want //lint:ignore <check> <reason>",
						})
					case len(fields) == 1:
						*diags = append(*diags, Diagnostic{
							File: file, Line: pos.Line, Col: pos.Column, Check: DirectiveCheck,
							Message: fmt.Sprintf("directive for %q is missing a reason: every suppression must say why", fields[0]),
						})
					case !known[fields[0]]:
						*diags = append(*diags, Diagnostic{
							File: file, Line: pos.Line, Col: pos.Column, Check: DirectiveCheck,
							Message: fmt.Sprintf("directive names unknown check %q", fields[0]),
						})
					default:
						out = append(out, ignoreDirective{
							file: file, line: pos.Line, col: pos.Column,
							check: fields[0], reason: strings.Join(fields[1:], " "),
						})
					}
				}
			}
		}
	}
	return out
}

// suppress filters diagnostics covered by a directive on the same line or
// the line directly above (the "trailing comment" and "comment above"
// placements). The lintdirective pseudo-check is never suppressible. The
// returned bitmap records, per directive, whether it suppressed anything —
// the raw material of the stale-suppression audit.
func suppress(diags []Diagnostic, directives []ignoreDirective) ([]Diagnostic, []bool) {
	type key struct {
		file  string
		line  int
		check string
	}
	idx := make(map[key][]int, 2*len(directives))
	for i, d := range directives {
		idx[key{d.file, d.line, d.check}] = append(idx[key{d.file, d.line, d.check}], i)
		idx[key{d.file, d.line + 1, d.check}] = append(idx[key{d.file, d.line + 1, d.check}], i)
	}
	used := make([]bool, len(directives))
	out := diags[:0]
	for _, d := range diags {
		if hits := idx[key{d.File, d.Line, d.Check}]; d.Check != DirectiveCheck && len(hits) > 0 {
			for _, i := range hits {
				used[i] = true
			}
			continue
		}
		out = append(out, d)
	}
	return out, used
}

// RunAnalyzers loads the module at root and runs the given analyzers over
// every package, returning the surviving (non-suppressed) diagnostics
// sorted by position.
func RunAnalyzers(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	return RunOnModule(mod, analyzers), nil
}

// RunOnModule runs the analyzers over an already-loaded module on the
// calling goroutine.
func RunOnModule(mod *Module, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunOnModuleOpts(mod, analyzers, 1)
	return diags
}

// AnalyzerTiming is the cumulative wall time one analyzer spent across its
// work units (every package for Run analyzers, the whole module for
// RunModule analyzers), as reported by schedlint -v.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunOnModuleOpts runs the analyzers over an already-loaded module, fanning
// the (analyzer, package) work units out over workers goroutines of an
// internal/par.Pool (workers < 1 selects GOMAXPROCS). Every unit appends to
// its own pre-assigned slot and the slots are merged in a fixed order, so
// the returned diagnostics are bit-identical to a sequential run. Timings
// come back in analyzer order.
func RunOnModuleOpts(mod *Module, analyzers []*Analyzer, workers int) ([]Diagnostic, []AnalyzerTiming) {
	diags, timings, _ := RunOnModuleFull(mod, analyzers, workers)
	return diags, timings
}

// RunOnModuleFull is RunOnModuleOpts plus the suppression audit: every
// well-formed //lint:ignore directive in the tree, sorted by position, with
// Used reporting whether it suppressed a diagnostic in this run.
func RunOnModuleFull(mod *Module, analyzers []*Analyzer, workers int) ([]Diagnostic, []AnalyzerTiming, []Suppression) {
	type unit struct {
		a   *Analyzer
		ai  int
		pkg *Package // nil for a RunModule unit
	}
	var units []unit
	for ai, a := range analyzers {
		if a.RunModule != nil {
			units = append(units, unit{a: a, ai: ai})
			continue
		}
		for _, pkg := range mod.Packages {
			if pkg.Types == nil {
				continue // empty directory package
			}
			units = append(units, unit{a: a, ai: ai, pkg: pkg})
		}
	}
	workers = par.Normalize(workers)
	var pool *par.Pool
	if workers > 1 && len(units) > 1 {
		pool = par.NewPool(workers)
		defer pool.Close()
	}
	slots := make([][]Diagnostic, len(units))
	nanos := make([]atomicInt64, len(analyzers))
	forEachIdx(pool, len(units), func(i int) {
		u := units[i]
		start := time.Now()
		if u.pkg == nil {
			u.a.RunModule(&ModulePass{Analyzer: u.a, Mod: mod, diags: &slots[i]})
		} else {
			u.a.Run(&Pass{Analyzer: u.a, Mod: mod, Pkg: u.pkg, diags: &slots[i]})
		}
		nanos[u.ai].add(int64(time.Since(start)))
	})
	var diags []Diagnostic
	for _, s := range slots {
		diags = append(diags, s...)
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	directives := collectDirectives(mod, known, &diags)
	diags, used := suppress(diags, directives)
	SortDiagnostics(diags)
	sups := make([]Suppression, len(directives))
	for i, d := range directives {
		sups[i] = Suppression{File: d.file, Line: d.line, Col: d.col, Check: d.check, Reason: d.reason, Used: used[i]}
	}
	sort.Slice(sups, func(i, j int) bool {
		a, b := sups[i], sups[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Check < b.Check
	})
	timings := make([]AnalyzerTiming, len(analyzers))
	for ai, a := range analyzers {
		timings[ai] = AnalyzerTiming{Name: a.Name, Elapsed: time.Duration(nanos[ai].load())}
	}
	return diags, timings, sups
}

// SortDiagnostics orders findings by position, then check, then message, so
// two findings of one check on one spot keep a fixed order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// atomicInt64 is a tiny wrapper so the timing accumulation stays readable.
type atomicInt64 struct{ v atomic.Int64 }

func (a *atomicInt64) add(d int64) { a.v.Add(d) }
func (a *atomicInt64) load() int64 { return a.v.Load() }

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoRandGlobal,
		CtxFirst,
		GoLifecycle,
		MapOrder,
		NakedPanic,
		MutexByValue,
		AtomicMix,
		LockOrder,
		IntOverflow,
		BoundsProof,
		Escape,
		SharedWrite,
		CancelPoll,
	}
}
