package dp

// Deterministic cancellation coverage for every fill variant: an
// already-canceled context must abort the fill (the table stays unfilled,
// the structured error matches cancel.ErrCanceled), and the same table must
// recover completely on the next uncanceled fill — partial garbage from the
// aborted attempt must not leak into the final values.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cancel"
	"repro/internal/par"
	"repro/pcmax"
)

// bigTable builds a table with >2^15 entries so the amortized budget
// countdown (fillCheckEvery) is guaranteed to expire mid-fill even when the
// context was canceled before the first entry.
func bigTable(t *testing.T) *Table {
	t.Helper()
	sizes := []pcmax.Time{1, 2, 3, 4, 5}
	counts := []int{7, 7, 7, 7, 8}
	tbl, err := New(sizes, counts, 15, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Sigma <= fillCheckEvery {
		t.Fatalf("table too small for the test: Sigma = %d", tbl.Sigma)
	}
	return tbl
}

func canceledCtx() context.Context {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	return ctx
}

func TestFillVariantsCancelAndRecover(t *testing.T) {
	ref := bigTable(t)
	mustFill(t, ref.FillSequentialCtx(context.Background()))
	want, err := ref.OptValue()
	if err != nil {
		t.Fatal(err)
	}

	pool := par.NewPool(3)
	defer pool.Close()

	variants := []struct {
		name string
		fill func(tbl *Table, ctx context.Context) error
	}{
		{"sequential", func(tbl *Table, ctx context.Context) error { return tbl.FillSequentialCtx(ctx) }},
		{"sequential-per-entry", func(tbl *Table, ctx context.Context) error {
			tbl.PerEntryEnum = true
			return tbl.FillSequentialCtx(ctx)
		}},
		{"recursive", func(tbl *Table, ctx context.Context) error { return tbl.FillRecursiveCtx(ctx) }},
		{"parallel-buckets", func(tbl *Table, ctx context.Context) error {
			return tbl.FillParallelCtx(ctx, pool, LevelBuckets, par.RoundRobin)
		}},
		{"parallel-scan", func(tbl *Table, ctx context.Context) error {
			return tbl.FillParallelCtx(ctx, pool, LevelScan, par.RoundRobin)
		}},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			tbl := bigTable(t)

			err := v.fill(tbl, canceledCtx())
			if err == nil {
				t.Fatal("want error from canceled fill")
			}
			if !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("error %v does not match cancel.ErrCanceled", err)
			}
			if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
				t.Fatalf("canceled fill left the table usable: OptValue error = %v", err)
			}

			// The same table must recover: an uncanceled fill overwrites the
			// aborted attempt's partial garbage completely.
			if err := v.fill(tbl, context.Background()); err != nil {
				t.Fatalf("recovery fill: %v", err)
			}
			got, err := tbl.OptValue()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("recovered OPT = %d, want %d", got, want)
			}
			for i, o := range tbl.Opt {
				if o != ref.Opt[i] {
					t.Fatalf("recovered Opt[%d] = %d, want %d", i, o, ref.Opt[i])
				}
			}
		})
	}
}

func TestFillCancelReportsPartialProgress(t *testing.T) {
	tbl := bigTable(t)
	err := tbl.FillSequentialCtx(canceledCtx())
	var cerr *cancel.Error
	if !errors.As(err, &cerr) {
		t.Fatalf("error %v does not carry *cancel.Error", err)
	}
	if cerr.EntriesFilled < 0 || cerr.EntriesFilled >= tbl.Sigma {
		t.Fatalf("EntriesFilled = %d outside [0, %d)", cerr.EntriesFilled, tbl.Sigma)
	}
}

func TestNilAndBackgroundContextFillsComplete(t *testing.T) {
	// The ctx-less shims delegate with context.Background(); both they and
	// an explicit Background ctx must fill to completion.
	a := bigTable(t)
	mustFill(t, a.FillSequentialCtx(context.Background()))
	if _, err := a.OptValue(); err != nil {
		t.Fatalf("shim fill left table unfilled: %v", err)
	}
	b := bigTable(t)
	if err := b.FillSequentialCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range a.Opt {
		if a.Opt[i] != b.Opt[i] {
			t.Fatalf("shim and ctx fills differ at %d", i)
		}
	}
}
