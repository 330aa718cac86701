package dp

// Adaptive parallel fill (see ALGORITHM.md section 10): the paper's
// level-synchronous Parallel DP pays one dispatch round per anti-diagonal,
// which on paper-scale tables costs more than the level's work — BENCH_dp
// showed the 4-worker parallel fill ~10x slower than sequential.
// FillAutoCtx routes each level by its measured-calibrated width instead:
//
//   - whole tables below autoSeqWork run the sequential config-outer sweep
//     (no coordination at all), as do tables on a pool with no effective
//     parallelism (hardware-clamped);
//   - levels narrower than autoInlineGrain run inline on the caller;
//   - consecutive mid-width levels fuse into a single BarrierPool.ForBatch
//     dispatch — one worker wakeup amortized over many levels, with the
//     batch's internal barriers preserving the level order that correctness
//     requires;
//   - only levels at least autoWideGrain wide fan out as dedicated rounds.
//
// Every arm relaxes entries with the same computeEntry recurrence over the
// same Jobs-pruned candidate sets, so the resulting table is bit-identical
// to FillSequentialCtx (the differential harness proves it on every
// workload family).

import (
	"context"
	"runtime"

	"repro/internal/cancel"
	"repro/internal/par"
)

// Adaptive-fill grain thresholds. Calibration (this host's
// BenchmarkDispatchOverhead and BENCH_dp.json): a warm barrier dispatch
// costs on the order of 1-2 microseconds at 4 workers while an inline entry
// relaxation costs ~0.1 microseconds on paper-scale candidate sets, so a
// level needs a few hundred entries before fan-out can win; fused batch
// segments only pay a spin barrier (~0.1 microseconds) and break even much
// earlier. They are variables, not constants, so the differential and race
// tests can force every arm on any host.
var (
	// autoSeqWork is the sigma*|configs| product below which the whole table
	// runs the sequential config-outer sweep (see EXPERIMENTS.md
	// barrier-bound analysis).
	autoSeqWork int64 = 1 << 17
	// autoInlineGrain is the level width below which a level runs inline on
	// the caller rather than joining a fused batch.
	autoInlineGrain int64 = 64
	// autoWideGrain is the level width from which a level gets a dedicated
	// dispatch round instead of fusing with its neighbours.
	autoWideGrain int64 = 4096
	// autoAssumeCores overrides the hardware-parallelism clamp (0 = use
	// runtime.GOMAXPROCS). Tests set it to exercise the dispatch arms on
	// single-core hosts.
	autoAssumeCores = 0
)

// autoCores reports the parallelism the adaptive fill may assume the
// hardware can actually deliver.
func autoCores() int {
	if autoAssumeCores > 0 {
		return autoAssumeCores
	}
	return runtime.GOMAXPROCS(0)
}

// AutoStats reports how FillAutoCtx routed the anti-diagonal levels of one
// fill. The three counters sum to NPrime (all levels except the trivial
// level 0) on a completed fill.
type AutoStats struct {
	// LevelsInline counts levels run inline on the calling goroutine —
	// levels too narrow to amortize any coordination, and every level of a
	// whole-table sequential cutover.
	LevelsInline int
	// LevelsFused counts levels executed inside a fused multi-level batch
	// dispatch (one worker wakeup, internal barriers between levels).
	LevelsFused int
	// LevelsParallel counts levels wide enough for a dedicated dispatch
	// round on the barrier pool.
	LevelsParallel int
}

// FillAutoCtx computes the table with the adaptive parallel fill: the
// whole-table and per-level routing described in the package comment above,
// recording the routing in t.AutoStats. A nil bp (or a pool with no
// effective parallelism on this hardware, or a table below the sequential
// work cutover, or the PerEntryEnum ablation switch) degrades to
// FillSequentialCtx with every level counted inline. Cancellation mirrors
// the other fills: ctx is polled while the level index is built, between
// levels and, inside dispatched rounds, every cancelCheckEvery entries per
// worker; on cancellation the table is left unfilled and the structured
// cancel error is returned. The resulting table is bit-identical to every
// other fill variant.
func (t *Table) FillAutoCtx(ctx context.Context, bp *par.BarrierPool) error {
	t.AutoStats = AutoStats{}
	if err := cancel.Check(ctx); err != nil {
		return err
	}
	if t.Sigma == 1 {
		t.Opt[0] = 0
		t.filled = true
		return nil
	}
	// Cutover tests run cheapest-first: the hardware clamp is a runtime
	// query behind the scheduler lock, so it is consulted only for tables
	// already big enough that dispatch is worth considering — the
	// small-table cutover must cost bare nanoseconds over
	// FillSequentialCtx, or the routing itself would erode the very
	// regime it picks.
	if bp == nil || t.PerEntryEnum ||
		t.Sigma*int64(len(t.Configs)) < autoSeqWork {
		if err := t.FillSequentialCtx(ctx); err != nil {
			return err
		}
		// Stats claim the inline levels only once they actually completed —
		// a mid-fill cancellation must not report a fully filled table.
		t.AutoStats.LevelsInline = t.NPrime
		return nil
	}
	parts := bp.Workers()
	if cores := autoCores(); parts > cores {
		// More workers than hardware threads cannot speed a fill up; the
		// sequential arm below sees the truth instead of the request.
		parts = cores
	}
	if parts < 2 {
		if err := t.FillSequentialCtx(ctx); err != nil {
			return err
		}
		t.AutoStats.LevelsInline = t.NPrime
		return nil
	}

	pfor := func(n int, body func(i int)) { bp.For(n, body) }
	li, err := t.levelIndex(ctx, pfor, bp.Workers())
	if err != nil {
		return err
	}
	decs := newDecoders(t, bp.Workers())
	t.Opt[0] = 0

	// Fusion accumulator: consecutive mid-width levels queue up here and
	// flush as one ForBatch dispatch the moment the run breaks (an inline or
	// wide level, or the end of the table). Levels are processed strictly in
	// ascending order across all three arms, so every entry's dependencies
	// (strictly smaller digit sums) are final before it is computed.
	var (
		pending     []int
		pendingSegs []int
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		levels, segs := pending, pendingSegs
		for w := range decs {
			decs[w].reset()
		}
		err := bp.ForBatchCtx(ctx, segs, func(w, s, j int) {
			l := levels[s]
			idx := li.order[li.start[l]+int64(j)]
			t.computeEntry(idx, decs[w].at(idx), int32(l))
		})
		if err != nil {
			return err
		}
		t.AutoStats.LevelsFused += len(levels)
		pending, pendingSegs = pending[:0], pendingSegs[:0]
		return nil
	}

	for l := 1; l <= t.NPrime; l++ {
		bucket := li.order[li.start[l]:li.start[l+1]]
		q := int64(len(bucket))
		switch {
		case q < autoInlineGrain:
			if err := flush(); err != nil {
				return err
			}
			if err := cancel.Check(ctx); err != nil {
				return err
			}
			dc := &decs[0]
			dc.reset()
			for j, idx := range bucket {
				if j&4095 == 0 {
					if err := cancel.Check(ctx); err != nil {
						return err
					}
				}
				t.computeEntry(idx, dc.at(idx), int32(l))
			}
			t.AutoStats.LevelsInline++
		case q >= autoWideGrain:
			if err := flush(); err != nil {
				return err
			}
			for w := range decs {
				decs[w].reset()
			}
			lvl := int32(l)
			err := bp.ForWorkerCtx(ctx, len(bucket), func(w, j int) {
				idx := bucket[j]
				t.computeEntry(idx, decs[w].at(idx), lvl)
			})
			if err != nil {
				return err
			}
			t.AutoStats.LevelsParallel++
		default:
			pending = append(pending, l)
			pendingSegs = append(pendingSegs, int(q))
		}
	}
	if err := flush(); err != nil {
		return err
	}
	t.filled = true
	return nil
}
