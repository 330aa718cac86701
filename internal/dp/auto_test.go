package dp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cancel"
	"repro/internal/par"
	"repro/pcmax"
)

// bigTableSpec is bigTable's instance triple, for cached builds.
func bigTableSpec() ([]pcmax.Time, []int, pcmax.Time) {
	return []pcmax.Time{1, 2, 3, 4, 5}, []int{7, 7, 7, 7, 8}, 15
}

// TestFillAutoStatsRouting forces each calibration regime and checks that
// AutoStats reports the routing truthfully: a hardware-clamped (or tiny)
// fill counts every level inline, a forced-parallel fill uses all three
// arms on a table whose level widths span the grain thresholds, and the
// counters always sum to NPrime.
func TestFillAutoStatsRouting(t *testing.T) {
	ref := bigTable(t)
	mustFill(t, ref.FillSequentialCtx(context.Background()))

	bp := par.NewBarrierPool(4)
	defer bp.Close()

	t.Run("clamped-sequential", func(t *testing.T) {
		restore := AutoTuneForTest(1, 1<<17, 64, 4096)
		defer restore()
		tbl := bigTable(t)
		if err := tbl.FillAutoCtx(context.Background(), bp); err != nil {
			t.Fatal(err)
		}
		s := tbl.AutoStats
		if s.LevelsInline != tbl.NPrime || s.LevelsFused != 0 || s.LevelsParallel != 0 {
			t.Fatalf("clamped fill routed %+v, want all %d levels inline", s, tbl.NPrime)
		}
		optEqual(t, "clamped FillAuto", tbl.Opt, ref.Opt)
	})

	t.Run("forced-parallel", func(t *testing.T) {
		restore := AutoTuneForTest(8, 1, 8, 64)
		defer restore()
		tbl := bigTable(t)
		if err := tbl.FillAutoCtx(context.Background(), bp); err != nil {
			t.Fatal(err)
		}
		s := tbl.AutoStats
		if s.LevelsInline+s.LevelsFused+s.LevelsParallel != tbl.NPrime {
			t.Fatalf("AutoStats %+v does not sum to NPrime=%d", s, tbl.NPrime)
		}
		// bigTable's level widths run from 5 up into the thousands, so every
		// regime of the forced calibration must be populated.
		if s.LevelsInline == 0 || s.LevelsFused == 0 || s.LevelsParallel == 0 {
			t.Fatalf("forced calibration left an arm unused: %+v", s)
		}
		optEqual(t, "forced FillAuto", tbl.Opt, ref.Opt)
	})

	t.Run("nil-pool", func(t *testing.T) {
		tbl := bigTable(t)
		mustFill(t, tbl.FillAutoCtx(context.Background(), nil))
		s := tbl.AutoStats
		if s.LevelsInline != tbl.NPrime || s.LevelsFused != 0 || s.LevelsParallel != 0 {
			t.Fatalf("nil-pool fill routed %+v, want sequential cutover", s)
		}
		optEqual(t, "nil-pool FillAuto", tbl.Opt, ref.Opt)
	})
}

// TestFillAutoCancelAndRecover mirrors the other fills' cancellation
// contract: a canceled context leaves the table unfilled with the structured
// error, and a later fill on the same table succeeds bit-identically.
func TestFillAutoCancelAndRecover(t *testing.T) {
	ref := bigTable(t)
	mustFill(t, ref.FillSequentialCtx(context.Background()))

	restore := AutoTuneForTest(8, 1, 8, 64)
	defer restore()
	bp := par.NewBarrierPool(4)
	defer bp.Close()

	tbl := bigTable(t)
	if err := tbl.FillAutoCtx(canceledCtx(), bp); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("canceled fill left table readable: %v", err)
	}
	if err := tbl.FillAutoCtx(context.Background(), bp); err != nil {
		t.Fatalf("recovery fill: %v", err)
	}
	optEqual(t, "recovered FillAuto", tbl.Opt, ref.Opt)
}

// TestFillAutoMidFillCancel cancels after the fill has started (via a
// context canceled by the first dispatched bodies) and checks the unfilled
// contract holds mid-flight too.
func TestFillAutoMidFillCancel(t *testing.T) {
	restore := AutoTuneForTest(8, 1, 8, 64)
	defer restore()
	bp := par.NewBarrierPool(4)
	defer bp.Close()

	tbl := bigTable(t)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	err := tbl.FillAutoCtx(ctx, bp)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The pool survives the canceled fill for unrelated rounds.
	var n int
	bp.For(1, func(int) { n++ })
	if n != 1 {
		t.Fatalf("barrier pool unusable after canceled fill")
	}
}

// trippingCtx is live for its first Done poll and canceled from the second
// onward: FillAutoCtx's entry check passes, and the fill it routed to dies
// at its own next poll — a deterministic mid-cutover cancellation.
type trippingCtx struct {
	context.Context
	polls atomic.Int32
	done  chan struct{}
}

func newTrippingCtx() *trippingCtx {
	done := make(chan struct{})
	close(done)
	return &trippingCtx{Context: context.Background(), done: done}
}

func (c *trippingCtx) Done() <-chan struct{} {
	if c.polls.Add(1) >= 2 {
		return c.done
	}
	return nil
}

func (c *trippingCtx) Err() error {
	if c.polls.Load() >= 2 {
		return context.Canceled
	}
	return nil
}

// TestFillAutoCanceledCutoverReportsNoInlineLevels pins the stats contract on
// the sequential-cutover arms: a fill that dies inside the cut-over
// FillSequentialCtx must not claim its levels completed inline.
func TestFillAutoCanceledCutoverReportsNoInlineLevels(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seqWork int64
		pool    bool
	}{
		// bp == nil routes to the first cutover arm regardless of table size.
		{"nil-pool", 1 << 17, false},
		// A real pool with the hardware clamp forced to one core exercises
		// the parts < 2 fallback arm (seqWork 1 keeps the small-table arm
		// from swallowing the case first).
		{"hardware-clamped", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := AutoTuneForTest(1, tc.seqWork, 64, 4096)
			defer restore()
			var bp *par.BarrierPool
			if tc.pool {
				bp = par.NewBarrierPool(4)
				defer bp.Close()
			}
			tbl := bigTable(t)
			if err := tbl.FillAutoCtx(newTrippingCtx(), bp); !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if s := tbl.AutoStats; s != (AutoStats{}) {
				t.Fatalf("canceled cutover fill reported stats %+v, want zero", s)
			}
		})
	}
}

// TestFillAutoReusesCachedLevelIndex checks FillAuto participates in the
// same level-index cache as the parallel fill: two fills over one cache must
// record a level-index hit.
func TestFillAutoReusesCachedLevelIndex(t *testing.T) {
	restore := AutoTuneForTest(8, 1, 8, 64)
	defer restore()
	bp := par.NewBarrierPool(4)
	defer bp.Close()

	cache := NewCache()
	sizes, counts, T := bigTableSpec()
	for round := 0; round < 2; round++ {
		tbl, err := NewCached(sizes, counts, T, 0, 0, cache)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.FillAutoCtx(context.Background(), bp); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.LevelHits == 0 {
		t.Fatalf("FillAuto never hit the level-index cache: %+v", st)
	}
}

// TestCanceledLevelIndexBuildIsNotCached cancels a fill while it builds the
// level index: the fill must return the cancel error without caching the
// partial index, so the next fill rebuilds it and fills bit-identically.
func TestCanceledLevelIndexBuildIsNotCached(t *testing.T) {
	ref := bigTable(t)
	mustFill(t, ref.FillSequentialCtx(context.Background()))

	restore := AutoTuneForTest(8, 1, 8, 64)
	defer restore()
	bp := par.NewBarrierPool(4)
	defer bp.Close()

	cache := NewCache()
	sizes, counts, T := bigTableSpec()
	tbl, err := NewCached(sizes, counts, T, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.FillAutoCtx(newTrippingCtx(), bp); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if err := tbl.FillAutoCtx(context.Background(), bp); err != nil {
		t.Fatalf("recovery fill: %v", err)
	}
	optEqual(t, "recovered FillAuto", tbl.Opt, ref.Opt)
	if st := cache.Stats(); st.LevelHits != 0 || st.LevelMisses != 2 {
		t.Fatalf("canceled build reached the cache: %+v", st)
	}
}
