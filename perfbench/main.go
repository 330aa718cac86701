// Command perfbench is the repository benchmark. It drives the solver only
// through public functions, in a closed loop with one caller goroutine, on
// one of three workloads (paper-eps03, fill-eps01, session-delta), checks
// every schedule, and prints the end-to-end metrics. A traced run (--trace 1)
// additionally replays every solve through the layers' public entry points
// and reports per-layer metrics built from the recorded spans.
//
//	python3 perfbench/run.py --workload paper-eps03 --seed 1 --seconds 20 --trace 0
//
// The report lines come first; the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --workers-ab instead
// times the two eps=0.1 instances where Workers=nproc is slowest against
// Workers=1, alternating the two settings in one process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A run sets its workload up at least setupRepeats times and for at least
// setupMinTime; setup_s is the median and the last state is measured.
const (
	setupRepeats = 5
	setupMinTime = 1500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-eps03, fill-eps01 or session-delta")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default <build dir>/spans/<workload>.tsv)")
	ab := fs.Bool("workers-ab", false, "time Workers=1 against Workers=nproc on two eps=0.1 instances and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ab {
		if err := workersAB(context.Background(), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {paper-eps03|fill-eps01|session-delta}, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// A watchdog far beyond any healthy run: a solve still running then is
	// canceled and counts as failed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+90*time.Second)
	defer cancel()

	res, err := measure(ctx, def, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := fmt.Sprintf("%s steal=%.1f%%", readHost(), 100*res.stealFrac)
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", def.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# recipe: %s\n# load: %s\n", def.recipe, loadModel)
	for _, e := range res.errors {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}

	var (
		defs    []metricDef
		metrics map[string]float64
	)
	if res.tr == nil {
		defs, metrics = endToEnd, res.endToEnd(*seconds)
		fmt.Fprintf(stdout, "# host: %s\n", host)
		for _, d := range defs {
			fmt.Fprintf(stdout, "%-22s %14.6g %-6s n=%d\n", d.name, metrics[d.name], d.unit, res.timed)
		}
		fmt.Fprintf(stdout, "%-22s %14.6g %-6s n=%d\n", failedFrac.name, float64(res.failed)/float64(res.attempted), failedFrac.unit, res.attempted)
	} else {
		defs, metrics = perLayer, layerMetrics(res.tr.spans, res.recs)
		fmt.Fprintf(stdout, "# host: %s dp.table_mb_computed=%.4g\n", host, metrics["dp.table_mb_computed"])
		for _, d := range defs {
			fmt.Fprintf(stdout, "%-30s %14.6g %-6s moves %s on %s\n", d.name, metrics[d.name], d.unit, d.moves, d.on)
		}
		fmt.Fprintf(stdout, "traced solves %d, spans %d, trace errors %d\n", len(res.recs), len(res.tr.spans), len(res.traceErrors))
		for _, e := range res.traceErrors {
			fmt.Fprintln(stderr, "perfbench: trace error:", e)
		}
		path := *spans
		if path == "" {
			path = filepath.Join(buildDir(), "spans", def.name+".tsv")
		}
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %s\n", path)
	}

	out := result{
		Correct:   res.failed == 0 && len(res.traceErrors) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", d.name)
			return 1
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// buildDir is where the run script builds, relative to the checkout root.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is what one measured run collected.
type runResult struct {
	attempted, failed int // every checked solve, warm-up included
	timed             int // solves in the measured window
	elapsed           time.Duration
	latMs             []float64 // successful timed solves
	gapSum            float64   // over successful timed solves
	allocBytes        uint64
	stealFrac         float64 // share of CPU ticks stolen by the hypervisor while measuring
	setupS            []float64
	errors            []string // first few failures
	tr                *tracer  // nil on untraced runs
	recs              []solveRec
	traceErrors       []string
}

// measure sets the workload up repeatedly, runs its warm-up, then solves in
// a closed loop until seconds have passed.
func measure(ctx context.Context, def *workloadDef, seed uint64, seconds float64, trace bool) (*runResult, error) {
	res := &runResult{}
	var b bench
	for first := time.Now(); len(res.setupS) < setupRepeats || time.Since(first) < setupMinTime; {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC() // each set-up starts from the same heap state
		t0 := time.Now()
		nb, err := def.setup(ctx, seed, trace)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		b = nb
	}
	defer b.close()

	// Warm-up solves are untimed but checked like any other.
	i := 0
	for ; i < b.warmup(); i++ {
		o, _ := b.step(ctx, i, nil)
		res.count(o)
	}
	res.gapSum = 0 // gap_mean covers the timed solves only
	if trace {
		res.tr = newTracer()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	total0, steal0 := cpuTicks()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ; res.timed == 0 || time.Now().Before(deadline); i++ {
		o, rec := b.step(ctx, i, res.tr)
		res.count(o)
		if o.err == nil {
			res.latMs = append(res.latMs, float64(o.ns)/1e6)
		}
		if trace {
			res.recs = append(res.recs, rec)
		}
		res.timed++
	}
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if total1, steal1 := cpuTicks(); total1 > total0 {
		res.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if trace {
		res.traceErrors = b.traceErrors()
	}
	return res, nil
}

func (res *runResult) count(o outcome) {
	res.attempted++
	if o.err == nil {
		res.gapSum += o.gap
		return
	}
	res.failed++
	if len(res.errors) < 5 {
		res.errors = append(res.errors, o.err.Error())
	}
}

// endToEnd computes the untraced run's metrics. Failed solves count as
// missing every latency limit: they sort above every success, at the run
// length.
func (res *runResult) endToEnd(seconds float64) map[string]float64 {
	lat := append([]float64(nil), res.latMs...)
	sort.Float64s(lat)
	for len(lat) < res.timed {
		lat = append(lat, seconds*1e3)
	}
	gap := 0.0
	if len(res.latMs) > 0 {
		gap = res.gapSum / float64(len(res.latMs))
	}
	return map[string]float64{
		"solves_per_s":       float64(len(res.latMs)) / res.elapsed.Seconds(),
		"solve_ms_p50":       quantile(lat, 0.5),
		"solve_ms_p90":       quantile(lat, 0.9),
		"gap_mean":           gap,
		"alloc_mb_per_solve": float64(res.allocBytes) / 1e6 / float64(res.timed),
		"setup_s":            median(res.setupS),
	}
}
