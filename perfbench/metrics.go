package main

import (
	"math"
	"sort"
)

// metricDef names one metric as BENCHMARK.json declares it. For a layer
// metric, moves and on record the end-to-end metric it should move and the
// workload where that shows.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics of an untraced run, in report order. failed_frac
// is printed in the report but left out of the JSON metrics: it reads 0 on
// a healthy run, and the JSON result carries failures as its failed count.
var endToEnd = []metricDef{
	{name: "solves_per_s", unit: "1/s", better: "higher"},
	{name: "solve_ms_p50", unit: "ms", better: "lower"},
	{name: "solve_ms_p90", unit: "ms", better: "lower"},
	{name: "gap_mean", unit: "ratio", better: "lower"},
	{name: "alloc_mb_per_solve", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

var failedFrac = metricDef{name: "failed_frac", unit: "frac", better: "lower"}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"lb.bounds_us_per_solve", "us", "lower", "solve_ms_p50", "paper-eps03"},
	{"lb.bracket_ratio", "ratio", "lower", "core.probes_per_solve, solve_ms_p50", "paper-eps03, fill-eps01"},
	{"core.probes_per_solve", "count", "lower", "solve_ms_p50", "fill-eps01"},
	{"core.round_us_per_probe", "us", "lower", "solve_ms_p50", "paper-eps03"},
	{"core.residual_frac", "frac", "lower", "solves_per_s", "paper-eps03"},
	{"conf.configs_per_probe", "count", "lower", "solves_per_s", "fill-eps01"},
	{"dp.build_us_per_probe", "us", "lower", "solve_ms_p50", "paper-eps03"},
	{"dp.cache_hit_frac", "frac", "higher", "solves_per_s", "session-delta"},
	{"dp.entries_per_solve", "count", "lower", "solves_per_s", "fill-eps01"},
	{"dp.table_mb_computed", "MB", "lower", "alloc_mb_per_solve", "fill-eps01"},
	{"dp.fill_ms_per_solve", "ms", "lower", "solve_ms_p50, solves_per_s", "fill-eps01"},
	{"dp.fill_frac", "frac", "lower", "solves_per_s", "fill-eps01 vs paper-eps03"},
	{"dp.fill_seq_ms_per_solve", "ms", "lower", "reference for dp.fill_speedup_vs_seq", "fill-eps01"},
	{"dp.fill_speedup_vs_seq", "ratio", "higher", "solves_per_s", "fill-eps01"},
	{"dp.reconstruct_us_per_solve", "us", "lower", "solve_ms_p50", "paper-eps03"},
	{"par.levels_inline", "count", "higher", "dp.fill_ms_per_solve", "fill-eps01"},
	{"par.levels_fused", "count", "lower", "dp.fill_ms_per_solve", "fill-eps01"},
	{"par.levels_parallel", "count", "lower", "dp.fill_ms_per_solve", "fill-eps01"},
	{"pcmax.validate_us_per_solve", "us", "lower", "solve_ms_p50", "paper-eps03"},
	{"solver.repair_frac", "frac", "higher", "solves_per_s", "session-delta"},
	{"solver.warm_frac", "frac", "lower", "solves_per_s", "session-delta"},
	{"solver.repair_us_p50", "us", "lower", "solve_ms_p50, solve_ms_p90", "session-delta"},
	{"solver.warm_ms_p50", "ms", "lower", "solve_ms_p50, solve_ms_p90", "session-delta"},
	{"listsched.repair_us_per_delta", "us", "lower", "solve_ms_p50", "session-delta"},
	{"trace.overhead_frac", "frac", "lower", "none (validity of the trace)", "all"},
}

// quantile is the nearest-rank p-quantile of sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// layerMetrics turns the spans and per-solve counts of a traced run into the
// per-layer metrics. Per-solve figures divide by every traced solve (for
// session-delta, every delta); per-probe figures by the replayed probes.
func layerMetrics(spans []span, recs []solveRec) map[string]float64 {
	byName := map[string]int64{}
	var replayWall, covered int64
	for i := range spans {
		s := &spans[i]
		byName[s.name] += s.dur()
		if s.name == spanReplay {
			replayWall += s.dur()
		}
		if s.parent >= 0 && spans[s.parent].name == spanReplay {
			covered += s.dur()
		}
	}
	var (
		solveNs, probes, entries, configs int64
		inline, fused, parallel           int64
		hits, lookups, replayed           int64
		bracket                           float64
		repairLat, warmLat                []float64
	)
	for _, r := range recs {
		solveNs += r.ns
		probes += int64(r.probes)
		entries += r.entries
		configs += r.configs
		inline += int64(r.auto.LevelsInline)
		fused += int64(r.auto.LevelsFused)
		parallel += int64(r.auto.LevelsParallel)
		hits += r.hits
		lookups += r.lookups
		if r.replayed {
			replayed++
			bracket += r.bracket
		}
		switch r.path {
		case "repair":
			repairLat = append(repairLat, float64(r.ns))
		case "warm":
			warmLat = append(warmLat, float64(r.ns))
		}
	}
	n := float64(len(recs))
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perSolve := func(ns int64, unit float64) float64 { return div(float64(ns)/unit, n) }
	perProbe := func(ns int64, unit float64) float64 { return div(float64(ns)/unit, float64(probes)) }
	pathFrac := func(lat []float64) float64 { return div(float64(len(lat)), n) }
	const us, ms = 1e3, 1e6
	const entryBytes = 4 // dp.Table.Opt holds one int32 per entry
	m := map[string]float64{
		"lb.bounds_us_per_solve":        perSolve(byName[spanBounds], us),
		"lb.bracket_ratio":              div(bracket, float64(replayed)),
		"core.probes_per_solve":         div(float64(probes), n),
		"core.round_us_per_probe":       perProbe(byName[spanRound], us),
		"core.residual_frac":            div(float64(solveNs-covered), float64(solveNs)),
		"conf.configs_per_probe":        div(float64(configs), float64(probes)),
		"dp.build_us_per_probe":         perProbe(byName[spanBuild], us),
		"dp.cache_hit_frac":             div(float64(hits), float64(lookups)),
		"dp.entries_per_solve":          div(float64(entries), n),
		"dp.table_mb_computed":          div(float64(entries)*entryBytes/1e6, n),
		"dp.fill_ms_per_solve":          perSolve(byName[spanFill], ms),
		"dp.fill_frac":                  div(float64(byName[spanFill]), float64(replayWall)),
		"dp.fill_seq_ms_per_solve":      perSolve(byName[spanFillSeq], ms),
		"dp.fill_speedup_vs_seq":        div(float64(byName[spanFillSeq]), float64(byName[spanFill])),
		"dp.reconstruct_us_per_solve":   perSolve(byName[spanReconstruct], us),
		"par.levels_inline":             div(float64(inline), n),
		"par.levels_fused":              div(float64(fused), n),
		"par.levels_parallel":           div(float64(parallel), n),
		"pcmax.validate_us_per_solve":   perSolve(byName[spanValidate], us),
		"solver.repair_frac":            pathFrac(repairLat),
		"solver.warm_frac":              pathFrac(warmLat),
		"solver.repair_us_p50":          median(repairLat) / us,
		"solver.warm_ms_p50":            median(warmLat) / ms,
		"listsched.repair_us_per_delta": perSolve(byName[spanRepair], us),
		"trace.overhead_frac":           div(float64(replayWall-solveNs), float64(solveNs)),
	}
	return m
}
