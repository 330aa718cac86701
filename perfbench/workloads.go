package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/listsched"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// A workload is one named input set under the closed-loop load model.
// setup builds its state from the seed; it is timed apart from the solves.
// BENCHMARK.json records why each workload was chosen.
type workloadDef struct {
	name   string
	recipe string
	setup  func(ctx context.Context, seed uint64, trace bool) (bench, error)
}

// bench is the state of one workload after set-up. step runs operation i
// (a solve), checks its output and, when tr is non-nil, replays it through
// the layers recording spans. Operations run strictly one after another.
type bench interface {
	step(ctx context.Context, i int, tr *tracer) (outcome, solveRec)
	// warmup is the number of untimed operations run before measuring.
	warmup() int
	// traceErrors lists the replays that disagreed with the solver.
	traceErrors() []string
	close()
}

// outcome is the checked result of one solve.
type outcome struct {
	ns  int64   // wall time of the solver call alone
	gap float64 // makespan / certified lower bound, when err is nil
	err error   // solver error or failed output check
}

const loadModel = "closed loop, one caller goroutine: the next solve starts after the previous one returned and was checked"

var workloads = []workloadDef{
	{
		name: "paper-eps03",
		recipe: fmt.Sprintf("solver.PTAS, DefaultPTASOptions (eps=0.3, Workers=1); (m,n) in %v x all six families "+
			"(U(m,2m-1) at n=2m+1), %d instances per cell, cycled in interleaved order", paperShapes, paperPerCell),
		setup: setupPaper,
	},
	{
		name: "fill-eps01",
		recipe: fmt.Sprintf("solver.PTAS, eps=0.1, Workers=nproc, AdaptiveFill on; shapes %v; an instance is kept when its "+
			"table at T=LB0 has %.0g-%.0g entries; %d instances per shape, interleaved", fillShapes, fillMinSigma, fillMaxSigma, fillPerShape),
		setup: setupFill,
	},
	{
		name: "session-delta",
		recipe: fmt.Sprintf("%d sessions per (paper shape, family) cell, cold Solve in set-up; per stream 1-job swap/add/remove "+
			"in rotation, every %dth delta replaces a third of the jobs (beyond RepairFraction, so warm bisection)", sessionsPerCell, batchEvery),
		setup: setupSession,
	},
}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// shape is one (family, m, n) instance recipe.
type shape struct {
	fam  workload.Family
	m, n int
}

func (s shape) String() string { return fmt.Sprintf("%v m=%d n=%d", s.fam, s.m, s.n) }

// paperShapes are the (m, n) pairs of the paper's Fig. 2-4.
var paperShapes = [][2]int{{20, 100}, {10, 50}, {10, 30}}

// paperCells crosses the paper shapes with all six families; the LPT
// adversarial family runs at n = 2m+1 as in the paper's Section V.B.
func paperCells() []shape {
	var cells []shape
	for _, mn := range paperShapes {
		for _, fam := range workload.Families {
			n := mn[1]
			if fam == workload.Um_2m1 {
				n = 2*mn[0] + 1
			}
			cells = append(cells, shape{fam, mn[0], n})
		}
	}
	return cells
}

const (
	paperPerCell    = 1000
	fillPerShape    = 100
	fillMinSigma    = 2e4
	fillMaxSigma    = 8e4
	sessionsPerCell = 6
	batchEvery      = 8
)

// fillShapes are the eps=0.1 instance shapes of fill-eps01.
var fillShapes = []shape{
	{workload.U1_2m1, 10, 50},
	{workload.U1_100, 8, 20},
	{workload.U1_100, 10, 24},
	{workload.U1_10n, 10, 20},
}

// ptasCase is one instance with the reference values its check needs.
type ptasCase struct {
	in    *pcmax.Instance
	lptMS pcmax.Time
}

func newPTASCase(in *pcmax.Instance) ptasCase {
	return ptasCase{in: in, lptMS: listsched.LPT(in).Makespan(in)}
}

// ptasBench solves a fixed instance list in order, cycling.
type ptasBench struct {
	opts   solver.PTASOptions
	cases  []ptasCase
	warm   int
	chk    checker
	replay *replayer // nil unless tracing
}

func (b *ptasBench) warmup() int { return b.warm }

func (b *ptasBench) traceErrors() []string { return b.replay.errorList() }

func (b *ptasBench) close() {
	b.replay.close()
}

func (b *ptasBench) step(ctx context.Context, i int, tr *tracer) (outcome, solveRec) {
	c := &b.cases[i%len(b.cases)]
	t0 := time.Now()
	sched, st, err := solver.PTAS(ctx, c.in, b.opts)
	o := outcome{ns: int64(time.Since(t0))}
	o.gap, o.err = b.chk.ptas(c, sched, st, err)
	rec := solveRec{path: "ptas", ns: o.ns}
	if tr == nil || o.err != nil {
		return o, rec
	}
	b.replay.ptas(ctx, tr, i, c.in, sched, st, &rec)
	return o, rec
}

// newPTASBench wraps the cases; with trace it also starts the replay's
// worker pool (the pool the solve's fill path would use).
func newPTASBench(opts solver.PTASOptions, cases []ptasCase, warm int, trace bool) (*ptasBench, error) {
	b := &ptasBench{opts: opts, cases: cases, warm: warm}
	if trace {
		var err error
		if b.replay, err = newReplayer(opts); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func setupPaper(ctx context.Context, seed uint64, trace bool) (bench, error) {
	src := rng.New(seed ^ 0x9a9e4e95)
	cells := paperCells()
	cases := make([]ptasCase, 0, len(cells)*paperPerCell)
	for r := 0; r < paperPerCell; r++ {
		for _, c := range cells {
			in, err := workload.Generate(workload.Spec{Family: c.fam, M: c.m, N: c.n, Seed: src.Uint64()})
			if err != nil {
				return nil, err
			}
			cases = append(cases, newPTASCase(in))
		}
	}
	// Solves share no state, so a short warm-up suffices: two solves per cell.
	return newPTASBench(solver.DefaultPTASOptions(), cases, 2*len(cells), trace)
}

// nproc is the worker count of the parallel workload.
func nproc() int { return runtime.NumCPU() }

func setupFill(ctx context.Context, seed uint64, trace bool) (bench, error) {
	const eps = 0.1
	k, err := core.KFor(eps)
	if err != nil {
		return nil, err
	}
	src := rng.New(seed ^ 0xf111e01)
	perShape := make([][]ptasCase, len(fillShapes))
	for s, sh := range fillShapes {
		for tries := 0; len(perShape[s]) < fillPerShape; tries++ {
			if tries == 100*fillPerShape {
				return nil, fmt.Errorf("fill-eps01: %v: only %d of %d instances in the table-size band after %d draws",
					sh, len(perShape[s]), fillPerShape, tries)
			}
			in, err := workload.Generate(workload.Spec{Family: sh.fam, M: sh.m, N: sh.n, Seed: src.Uint64()})
			if err != nil {
				return nil, err
			}
			sigma, err := tableAtLowerBound(in, k)
			if err != nil {
				return nil, err
			}
			if sigma >= fillMinSigma && sigma <= fillMaxSigma {
				perShape[s] = append(perShape[s], newPTASCase(in))
			}
		}
	}
	cases := make([]ptasCase, 0, len(fillShapes)*fillPerShape)
	for r := 0; r < fillPerShape; r++ {
		for s := range perShape {
			cases = append(cases, perShape[s][r])
		}
	}
	opts := solver.DefaultPTASOptions()
	opts.Epsilon = eps
	opts.Workers = nproc()
	return newPTASBench(opts, cases, len(fillShapes), trace)
}

// tableAtLowerBound is the entry count of the DP table a probe at the
// solve's initial lower bracket LB0 would build: the instance-size property
// fill-eps01 selects on.
func tableAtLowerBound(in *pcmax.Instance, k int) (float64, error) {
	lbT, _ := freshBounds(in)
	_, counts, err := core.RoundedClasses(in, k, lbT)
	if err != nil {
		return 0, err
	}
	sigma := 1.0
	for _, c := range counts {
		sigma *= float64(c + 1)
	}
	return sigma, nil
}
