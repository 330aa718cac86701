package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/workload"
	"repro/solver"
)

// workersAB times solver.PTAS at eps=0.1 with Workers=1 and Workers=nproc
// on the two instances (workload seed 4) where the parallel fill loses most,
// alternating the settings so both sides see the same host conditions, and
// checks both produce the same makespan.
func workersAB(ctx context.Context, w io.Writer) error {
	const reps = 3
	for _, sh := range []shape{{workload.U1_10n, 10, 20}, {workload.U1_100, 8, 24}} {
		in, err := workload.Generate(workload.Spec{Family: sh.fam, M: sh.m, N: sh.n, Seed: 4})
		if err != nil {
			return err
		}
		var secs [2][]float64
		for r := 0; r < reps; r++ {
			var ms [2]int64
			for side, workers := range []int{1, nproc()} {
				opts := solver.DefaultPTASOptions()
				opts.Epsilon = 0.1
				opts.Workers = workers
				t0 := time.Now()
				sched, _, err := solver.PTAS(ctx, in, opts)
				secs[side] = append(secs[side], time.Since(t0).Seconds())
				if err != nil {
					return fmt.Errorf("%v seed 4 Workers=%d: %w", sh, workers, err)
				}
				ms[side] = sched.Makespan(in)
			}
			if ms[0] != ms[1] {
				return fmt.Errorf("%v seed 4: makespan %d with Workers=1, %d with Workers=%d", sh, ms[0], ms[1], nproc())
			}
		}
		one, all := median(secs[0]), median(secs[1])
		fmt.Fprintf(w, "%v seed 4 eps=0.1: Workers=1 %.3fs, Workers=%d %.3fs (medians of %d, alternating), time ratio %.2f\n",
			sh, one, nproc(), all, reps, all/one)
	}
	return nil
}
