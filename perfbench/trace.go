package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dp"
)

// Span names. A replay root ("replay") spans one solve's re-execution;
// its direct children are the layer calls the solve is made of. Reference
// fills ("dp.fill_seq") hang under their own root, outside the replay.
const (
	spanReplay      = "replay"
	spanBounds      = "lb.bounds"
	spanProbe       = "core.probe"
	spanRound       = "core.round"
	spanBuild       = "dp.build"
	spanFill        = "dp.fill"
	spanReconstruct = "dp.reconstruct"
	spanValidate    = "pcmax.validate"
	spanRepair      = "listsched.repair"
	spanReference   = "reference"
	spanFillSeq     = "dp.fill_seq"
)

// span is one timed call. Spans of one solve share its id; parent indexes
// the enclosing span, -1 for a root.
type span struct {
	name       string
	solve      int
	parent     int
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, solve, parent int) int {
	t.spans = append(t.spans, span{name: name, solve: solve, parent: parent, start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = int64(time.Since(t.t0)) }

func (s *span) dur() int64 { return s.end - s.start }

// write saves the spans as tab-separated lines: id, parent, solve, name,
// start_ns, end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tsolve\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.solve, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solveRec holds the counts recorded at the layer boundaries of one solve.
type solveRec struct {
	path     string // "ptas", or the Session path: "repair", "warm", "cold"
	ns       int64  // untraced wall time of the solver call
	replayed bool   // a bisection was replayed for this solve
	bracket  float64
	probes   int
	entries  int64
	configs  int64
	auto     dp.AutoStats // level routing summed over the probes
	hits     int64        // configuration-set cache hits (solver stats)
	lookups  int64
}
