package main

import (
	"errors"
	"fmt"

	"repro/pcmax"
	"repro/solver"
)

var errNoSchedule = errors.New("solver returned no schedule")

// checker verifies solver outputs. It owns a load buffer so the check adds
// no allocation per solve.
type checker struct {
	loads []pcmax.Time
}

// makespan validates sched as a complete schedule of in (every job on a
// machine in range) and computes its makespan independently of the solver.
func (c *checker) makespan(in *pcmax.Instance, sched *pcmax.Schedule) (pcmax.Time, error) {
	if sched == nil {
		return 0, errNoSchedule
	}
	if err := sched.Validate(in); err != nil {
		return 0, err
	}
	if cap(c.loads) < in.M {
		c.loads = make([]pcmax.Time, in.M)
	}
	loads := c.loads[:in.M]
	clear(loads)
	var ms pcmax.Time
	for j, mi := range sched.Assignment {
		loads[mi] += in.Times[j]
		ms = max(ms, loads[mi])
	}
	return ms, nil
}

// ptas checks one PTAS result and returns makespan / certified lower bound.
// The certified bound is max(LB0, FinalT): the bisection only raises its
// lower bracket past infeasible probes, so FinalT <= OPT. The default LPT
// fallback makes plain LPT's makespan a ceiling.
func (c *checker) ptas(pc *ptasCase, sched *pcmax.Schedule, st *solver.PTASStats, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	if st == nil {
		return 0, errors.New("solver returned no stats")
	}
	ms, err := c.makespan(pc.in, sched)
	if err != nil {
		return 0, err
	}
	cert := max(st.LB0, st.FinalT)
	if ms < cert {
		return 0, fmt.Errorf("makespan %d below the certified lower bound %d", ms, cert)
	}
	if ms > pc.lptMS {
		return 0, fmt.Errorf("makespan %d worse than LPT's %d", ms, pc.lptMS)
	}
	return float64(ms) / float64(cert), nil
}

// delta checks one Session.SolveDelta result against the benchmark's own
// copy of the mutated instance and returns makespan / certified lower bound.
// A repair-path result must carry its (1+eps) certificate.
func (c *checker) delta(eps float64, next *pcmax.Instance, sched *pcmax.Schedule, st *solver.DeltaStats, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	if st == nil {
		return 0, errors.New("solver returned no stats")
	}
	ms, err := c.makespan(next, sched)
	if err != nil {
		return 0, err
	}
	if ms != st.Makespan {
		return 0, fmt.Errorf("makespan %d, stats report %d", ms, st.Makespan)
	}
	if st.LowerBound <= 0 || ms < st.LowerBound {
		return 0, fmt.Errorf("makespan %d below the certified lower bound %d", ms, st.LowerBound)
	}
	if st.Path == solver.DeltaRepair && float64(ms) > (1+eps)*float64(st.LowerBound)+1e-9 {
		return 0, fmt.Errorf("repair makespan %d exceeds (1+%g) x lower bound %d", ms, eps, st.LowerBound)
	}
	return float64(ms) / float64(st.LowerBound), nil
}
