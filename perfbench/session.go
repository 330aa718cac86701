package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dp"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// stream is one solver.Session and the deterministic mutation stream driving
// it. times and assign mirror the session's current instance and accepted
// schedule, so every delta result is checked against an instance the
// benchmark built itself.
type stream struct {
	sess   *solver.Session
	m      int
	src    *rng.Source
	lo, hi int64 // family bounds of added jobs
	times  []pcmax.Time
	assign []int
	certLB pcmax.Time // session's certified bound before the next delta
	steps  int
	cache  *dp.Cache // the replay's stand-in for the session cache; nil unless tracing
}

// sessionBench round-robins one delta per stream.
type sessionBench struct {
	eps     float64
	streams []*stream
	chk     checker
	replay  *replayer // nil unless tracing
}

func (b *sessionBench) warmup() int { return len(b.streams) }

func (b *sessionBench) traceErrors() []string { return b.replay.errorList() }

func (b *sessionBench) close() {
	b.replay.close()
}

func setupSession(ctx context.Context, seed uint64, trace bool) (bench, error) {
	opts := solver.DefaultSessionOptions()
	b := &sessionBench{eps: opts.PTAS.Epsilon}
	if trace {
		var err error
		if b.replay, err = newReplayer(opts.PTAS); err != nil {
			return nil, err
		}
	}
	src := rng.New(seed ^ 0x5e55101)
	for r := 0; r < sessionsPerCell; r++ {
		for _, c := range paperCells() {
			in, err := workload.Generate(workload.Spec{Family: c.fam, M: c.m, N: c.n, Seed: src.Uint64()})
			if err != nil {
				return nil, err
			}
			lo, hi, err := c.fam.Bounds(c.m, c.n)
			if err != nil {
				return nil, err
			}
			sess, err := solver.NewSession(opts)
			if err != nil {
				return nil, err
			}
			sched, _, err := sess.Solve(ctx, in)
			if err != nil {
				return nil, fmt.Errorf("session-delta: cold solve of %v: %w", c, err)
			}
			s := &stream{
				sess: sess, m: c.m, src: src.Split(), lo: lo, hi: hi,
				times:  append([]pcmax.Time(nil), in.Times...),
				assign: sched.Assignment,
				certLB: sess.LowerBound(),
			}
			if trace {
				s.cache = dp.NewCache()
			}
			b.streams = append(b.streams, s)
		}
	}
	return b, nil
}

// next draws the stream's next mutation: 1-job swap, add and remove in
// rotation, and every batchEvery-th delta a batch replacing a third of the
// jobs, which exceeds the session's RepairFraction.
func (s *stream) next() (add []pcmax.Time, remove []int) {
	s.steps++
	n := len(s.times)
	if s.steps%batchEvery == 0 {
		r := n / 3
		remove = s.src.Perm(n)[:r]
		for i := 0; i < r; i++ {
			add = append(add, s.src.MustUniform(s.lo, s.hi))
		}
		return add, remove
	}
	switch s.steps % 3 {
	case 0:
		return []pcmax.Time{s.src.MustUniform(s.lo, s.hi)}, []int{s.src.Intn(n)}
	case 1:
		return []pcmax.Time{s.src.MustUniform(s.lo, s.hi)}, nil
	default:
		return nil, []int{s.src.Intn(n)}
	}
}

// apply builds the mutated instance the way Session.SolveDelta defines it
// (survivors in order, then the added jobs), the keep map listsched.Repair
// takes (previous machine per survivor, -1 per added job) and the removed
// total.
func (s *stream) apply(add []pcmax.Time, remove []int) (times []pcmax.Time, keep []int, removed pcmax.Time) {
	drop := make([]bool, len(s.times))
	for _, j := range remove {
		drop[j] = true
		removed += s.times[j]
	}
	times = make([]pcmax.Time, 0, len(s.times)-len(remove)+len(add))
	keep = make([]int, 0, cap(times))
	for j, t := range s.times {
		if !drop[j] {
			times = append(times, t)
			keep = append(keep, s.assign[j])
		}
	}
	times = append(times, add...)
	for range add {
		keep = append(keep, -1)
	}
	return times, keep, removed
}

func (b *sessionBench) step(ctx context.Context, i int, tr *tracer) (outcome, solveRec) {
	s := b.streams[i%len(b.streams)]
	add, remove := s.next()
	times, keep, removed := s.apply(add, remove)
	next := &pcmax.Instance{M: s.m, Times: times}

	t0 := time.Now()
	sched, st, err := s.sess.SolveDelta(ctx, add, remove)
	o := outcome{ns: int64(time.Since(t0))}
	o.gap, o.err = b.chk.delta(b.eps, next, sched, st, err)
	rec := solveRec{path: "failed", ns: o.ns}
	if err == nil && sched != nil {
		// The session accepted the delta, checked or not: keep the mirror
		// in step with it.
		s.times, s.assign = times, sched.Assignment
	}
	prevLB := s.certLB
	s.certLB = s.sess.LowerBound()
	if o.err != nil {
		return o, rec
	}
	rec.path = st.Path.String()
	if tr != nil {
		b.replay.delta(ctx, tr, i, s.cache, next, keep, prevLB, removed, sched, st, &rec)
	}
	return o, rec
}
