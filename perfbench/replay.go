package main

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/internal/par"
	"repro/pcmax"
	"repro/solver"
)

// replayer re-executes solves through the public entry point of each layer
// (listsched/lb -> core -> conf/dp -> par), timing every call in a span, and
// checks that the re-execution agrees with the solver's own stats. A
// disagreement is kept as a trace error.
type replayer struct {
	k      int
	bpool  *par.BarrierPool // the pool FillAutoCtx runs on; nil when the solve fills sequentially
	errors []string
}

// newReplayer mirrors the solver's fill routing for opts: more than one
// worker with AdaptiveFill fills with dp.FillAutoCtx on a barrier pool,
// anything else with the sequential config-outer sweep.
func newReplayer(opts solver.PTASOptions) (*replayer, error) {
	k, err := core.KFor(opts.Epsilon)
	if err != nil {
		return nil, err
	}
	r := &replayer{k: k}
	if w := par.Normalize(opts.Workers); w > 1 && opts.AdaptiveFill {
		r.bpool = par.NewBarrierPool(w)
	}
	return r, nil
}

func (r *replayer) close() {
	if r != nil && r.bpool != nil {
		r.bpool.Close()
	}
}

// errorList returns the trace errors; a nil replayer (untraced run) has none.
func (r *replayer) errorList() []string {
	if r == nil {
		return nil
	}
	return r.errors
}

func (r *replayer) fail(solve int, err error) {
	r.errors = append(r.errors, fmt.Sprintf("solve %d: %v", solve, err))
}

// bisection is what one replayed solve did.
type bisection struct {
	lb0, ub0   pcmax.Time
	finalT     pcmax.Time
	iterations int
	probes     int
	entries    int64
	configs    int64
	auto       dp.AutoStats
	tables     []*dp.Table
}

// ptas replays a solver.PTAS call: bounds, the bisection probes and the
// reconstruction, then validates the solver's schedule; afterwards it fills
// every probe table again with FillSequentialCtx as the reference.
func (r *replayer) ptas(ctx context.Context, tr *tracer, id int, in *pcmax.Instance, sched *pcmax.Schedule, st *solver.PTASStats, rec *solveRec) {
	root := tr.begin(spanReplay, id, -1)
	bs, err := r.bisect(ctx, tr, id, root, in, nil, dp.NewCache())
	if err == nil {
		err = r.validate(tr, id, root, in, sched)
	}
	tr.end(root)
	if err == nil {
		err = agree(bs, st)
	}
	if err == nil {
		err = r.reference(ctx, tr, id, bs.tables)
	}
	if err != nil {
		r.fail(id, err)
	}
	rec.record(bs, st)
}

// delta replays a Session.SolveDelta call: the delta-shifted bound and the
// LPT repair on every path, plus the warm-started bisection when the
// session took it.
func (r *replayer) delta(ctx context.Context, tr *tracer, id int, cache *dp.Cache, next *pcmax.Instance, keep []int,
	prevLB, removed pcmax.Time, sched *pcmax.Schedule, st *solver.DeltaStats, rec *solveRec) {
	root := tr.begin(spanReplay, id, -1)
	sp := tr.begin(spanBounds, id, root)
	newLB := next.LowerBound()
	if b := lb.FromPrevious(prevLB, removed); b > newLB {
		newLB = b
	}
	tr.end(sp)
	sp = tr.begin(spanRepair, id, root)
	repaired := listsched.Repair(next, keep)
	tr.end(sp)
	repairMS := repaired.Makespan(next)

	var (
		bs  bisection
		err error
	)
	switch {
	case repairMS != st.RepairMakespan:
		err = fmt.Errorf("repair makespan %d, session reports %d", repairMS, st.RepairMakespan)
	case st.Path == solver.DeltaRepair && newLB != st.LowerBound:
		err = fmt.Errorf("delta lower bound %d, session reports %d", newLB, st.LowerBound)
	case st.Path == solver.DeltaWarm:
		bs, err = r.bisect(ctx, tr, id, root, next, &core.Bracket{LB: newLB, UB: repairMS}, cache)
	}
	if err == nil {
		err = r.validate(tr, id, root, next, sched)
	}
	tr.end(root)
	if err == nil && st.Path == solver.DeltaWarm {
		if err = agree(bs, st.PTAS); err == nil {
			err = r.reference(ctx, tr, id, bs.tables)
		}
	}
	if err != nil {
		r.fail(id, err)
	}
	if st.Path == solver.DeltaWarm {
		rec.record(bs, st.PTAS)
	}
}

func (r *replayer) validate(tr *tracer, id, parent int, in *pcmax.Instance, sched *pcmax.Schedule) error {
	sp := tr.begin(spanValidate, id, parent)
	err := sched.Validate(in)
	tr.end(sp)
	return err
}

// bisect replays the solve's bounds and bisection, intersecting the fresh
// bracket with warm when given (as core.Options.WarmBracket does).
func (r *replayer) bisect(ctx context.Context, tr *tracer, id, parent int, in *pcmax.Instance, warm *core.Bracket, cache *dp.Cache) (bisection, error) {
	var bs bisection
	sp := tr.begin(spanBounds, id, parent)
	lbT, ubT := freshBounds(in)
	tr.end(sp)
	if warm != nil && max(lbT, warm.LB) <= min(ubT, warm.UB) {
		lbT, ubT = max(lbT, warm.LB), min(ubT, warm.UB)
	}
	bs.lb0, bs.ub0 = lbT, ubT

	var final *dp.Table
	finalT := pcmax.Time(-1)
	for lbT < ubT {
		bs.iterations++
		T := lbT + (ubT-lbT)/2
		tbl, ok, err := r.probe(ctx, tr, id, parent, in, T, cache, &bs)
		if err != nil {
			return bs, err
		}
		if ok {
			ubT, final, finalT = T, tbl, T
		} else {
			lbT = T + 1
		}
	}
	bs.finalT = lbT
	if finalT != lbT {
		// The converged target was not the last feasible probe: the solver
		// attempts it once more.
		tbl, ok, err := r.probe(ctx, tr, id, parent, in, lbT, cache, &bs)
		if err != nil {
			return bs, err
		}
		if !ok {
			return bs, fmt.Errorf("converged T=%d is infeasible", lbT)
		}
		final = tbl
	}
	if final != nil {
		sp := tr.begin(spanReconstruct, id, parent)
		_, err := final.Reconstruct()
		tr.end(sp)
		if err != nil {
			return bs, err
		}
	}
	return bs, nil
}

// freshBounds is the solver's initial bracket [LB0, UB0]: the instance
// bounds tightened by an LPT run.
func freshBounds(in *pcmax.Instance) (lbT, ubT pcmax.Time) {
	lpt := listsched.LPT(in)
	return max(in.LowerBound(), lb.FromLPT(in, lpt)), min(in.UpperBound(), lpt.Makespan(in))
}

// probe replays one bisection probe at target T: rounding, table build
// (configuration enumeration and level index, through the cache), the fill
// the solver would run, and the feasibility read-out.
func (r *replayer) probe(ctx context.Context, tr *tracer, id, parent int, in *pcmax.Instance, T pcmax.Time, cache *dp.Cache, bs *bisection) (*dp.Table, bool, error) {
	bs.probes++
	ps := tr.begin(spanProbe, id, parent)
	defer tr.end(ps)
	sp := tr.begin(spanRound, id, ps)
	sizes, counts, err := core.RoundedClasses(in, r.k, T)
	tr.end(sp)
	if err != nil || len(sizes) == 0 {
		return nil, err == nil, err // no long jobs: feasible without a table
	}
	sp = tr.begin(spanBuild, id, ps)
	tbl, err := dp.NewCached(sizes, counts, T, 0, 0, cache)
	tr.end(sp)
	if err != nil {
		return nil, false, err
	}
	sp = tr.begin(spanFill, id, ps)
	if r.bpool != nil {
		err = tbl.FillAutoCtx(ctx, r.bpool)
	} else {
		err = tbl.FillSequentialCtx(ctx)
	}
	tr.end(sp)
	if err != nil {
		return nil, false, err
	}
	opt, err := tbl.OptValue()
	if err != nil {
		return nil, false, err
	}
	bs.entries += tbl.Sigma
	bs.configs += int64(len(tbl.Configs))
	bs.auto.LevelsInline += tbl.AutoStats.LevelsInline
	bs.auto.LevelsFused += tbl.AutoStats.LevelsFused
	bs.auto.LevelsParallel += tbl.AutoStats.LevelsParallel
	bs.tables = append(bs.tables, tbl)
	return tbl, opt <= in.M, nil
}

// reference fills every probe table again with the sequential config-outer
// sweep, the fastest correct single-thread fill, and checks the tables are
// identical.
func (r *replayer) reference(ctx context.Context, tr *tracer, id int, tables []*dp.Table) error {
	root := tr.begin(spanReference, id, -1)
	defer tr.end(root)
	for _, tbl := range tables {
		ref, err := dp.NewCached(tbl.Sizes, tbl.Counts, tbl.T, 0, 0, nil)
		if err != nil {
			return err
		}
		sp := tr.begin(spanFillSeq, id, root)
		err = ref.FillSequentialCtx(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !slices.Equal(ref.Opt, tbl.Opt) {
			return fmt.Errorf("T=%d: production fill and sequential fill disagree", tbl.T)
		}
	}
	return nil
}

// agree checks the replay against the solver's stats.
func agree(bs bisection, st *solver.PTASStats) error {
	if st == nil {
		return fmt.Errorf("no solver stats to compare the replay with")
	}
	if bs.lb0 != st.LB0 || bs.ub0 != st.UB0 || bs.finalT != st.FinalT || bs.iterations != st.Iterations ||
		bs.entries != st.TotalEntriesFilled || bs.auto != st.Auto {
		return fmt.Errorf("replay [%d,%d] T=%d iters=%d entries=%d auto=%+v; solver [%d,%d] T=%d iters=%d entries=%d auto=%+v",
			bs.lb0, bs.ub0, bs.finalT, bs.iterations, bs.entries, bs.auto,
			st.LB0, st.UB0, st.FinalT, st.Iterations, st.TotalEntriesFilled, st.Auto)
	}
	return nil
}

// record stores the replayed counts of one solve.
func (rec *solveRec) record(bs bisection, st *solver.PTASStats) {
	rec.replayed = true
	if bs.lb0 > 0 {
		rec.bracket = float64(bs.ub0) / float64(bs.lb0)
	}
	rec.probes = bs.probes
	rec.entries = bs.entries
	rec.configs = bs.configs
	rec.auto = bs.auto
	if st != nil {
		rec.hits = st.Cache.ConfigHits
		rec.lookups = st.Cache.ConfigHits + st.Cache.ConfigMisses
	}
}
