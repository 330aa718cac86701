package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dp"
	"repro/internal/workload"
)

// TestAutoFillMatchesSequential checks the AutoFill route end to end: the
// same makespan as the sequential reference, and Stats.Auto reporting the
// routing — all levels inline below the whole-table cutover, dispatched
// levels above it, and nothing at all on the Algorithm 3 route. Job-for-job
// schedule identity across routes is TestAdaptiveFillIdenticalResults.
func TestAutoFillMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		spec     workload.Spec
		dispatch bool // some probe builds a table above dp's sequential cutover
	}{
		{workload.Spec{Family: workload.U1_100, M: 8, N: 50, Seed: 3}, false},
		{workload.Spec{Family: workload.Um_2m1, M: 20, N: 41, Seed: 3}, true},
	} {
		in := workload.MustGenerate(tc.spec)
		ref, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		got, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3, Workers: 4, AutoFill: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan(in) != ref.Makespan(in) {
			t.Fatalf("%v: AutoFill makespan %d != sequential %d", tc.spec.Family, got.Makespan(in), ref.Makespan(in))
		}
		a := st.Auto
		if a.LevelsInline+a.LevelsFused+a.LevelsParallel == 0 {
			t.Fatalf("%v: Stats.Auto empty after an AutoFill solve", tc.spec.Family)
		}
		switch {
		case !tc.dispatch && (a.LevelsFused != 0 || a.LevelsParallel != 0):
			t.Fatalf("%v: tables below the cutover dispatched levels: %+v", tc.spec.Family, a)
		case tc.dispatch && runtime.GOMAXPROCS(0) >= 2 && a.LevelsFused+a.LevelsParallel == 0:
			t.Fatalf("%v: tables above the cutover ran every level inline: %+v", tc.spec.Family, a)
		}

		_, st, err = Solve(context.Background(), in, Options{Epsilon: 0.3, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if st.Auto != (dp.AutoStats{}) {
			t.Fatalf("%v: Algorithm 3 route reported adaptive routing: %+v", tc.spec.Family, st.Auto)
		}
	}
}
