package lint

// A small forward dataflow framework over the CFGs of cfg.go: analyses
// supply a join (merge at control-flow confluences) and a transfer function
// (effect of one basic block) and get the fixpoint facts at every block
// boundary. Both concurrency analyzers sit on it — lockorder runs a
// may-analysis (union join) over held-mutex sets, golifecycle a
// must-analysis (intersection join) over surely-called-Done sets — and the
// engine is deliberately generic so the next invariant check does not start
// from scratch.

// Fact is one dataflow fact. Implementations must be immutable once handed
// to the engine (Join and Transfer return fresh values) and EqualFact must
// be an equivalence so the fixpoint iteration can detect convergence.
type Fact interface {
	EqualFact(Fact) bool
}

// FlowProblem describes one forward dataflow analysis.
type FlowProblem struct {
	// Entry is the fact at function entry.
	Entry Fact
	// Join merges the facts of two predecessors at a control-flow join. It
	// must be commutative, associative and monotone for the iteration to
	// converge.
	Join func(a, b Fact) Fact
	// Transfer applies one basic block's effect to its incoming fact.
	Transfer func(b *Block, in Fact) Fact
	// EdgeTransfer, when set, refines a block's outgoing fact per edge
	// before it merges into the successor. The interval analysis uses it for
	// branch-condition refinement (the true and false edges of a guard carry
	// different range facts) and for resolving phi arguments per predecessor.
	EdgeTransfer func(from, to *Block, out Fact) Fact
	// Widen, when set, accelerates convergence on lattices of unbounded
	// height: once a block's incoming fact has been re-merged more than
	// WidenAfter times, the merge result is widened against the previous
	// fact instead of joined exactly. Widen must return a fact at least as
	// large as both arguments and must reach a fixed bound in finitely many
	// applications (the interval lattice widens to guard thresholds, then to
	// infinity).
	Widen func(b *Block, old, merged Fact) Fact
	// WidenAfter is the per-block merge count that triggers Widen;
	// 0 selects a small default.
	WidenAfter int
}

// FlowResult holds the fixpoint facts. Blocks unreachable from the entry
// have no entry in either map (their facts are bottom).
type FlowResult struct {
	// In is the fact at each block's entry, Out at its exit.
	In, Out map[*Block]Fact
}

// Forward computes the forward fixpoint of the problem over the CFG with a
// worklist iteration. Termination requires the usual lattice conditions:
// finitely many facts reachable from Entry under Join/Transfer (every
// analyzer here works on finite sets drawn from the function's own
// identifiers, so height is bounded by construction).
func (c *CFG) Forward(p FlowProblem) *FlowResult {
	res := &FlowResult{In: map[*Block]Fact{}, Out: map[*Block]Fact{}}
	res.In[c.Entry] = p.Entry
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	widenAfter := p.WidenAfter
	if widenAfter <= 0 {
		widenAfter = 4
	}
	merges := map[*Block]int{}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := p.Transfer(b, res.In[b])
		if prev, ok := res.Out[b]; ok && prev.EqualFact(out) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			edge := out
			if p.EdgeTransfer != nil {
				edge = p.EdgeTransfer(b, s, out)
			}
			in, ok := res.In[s]
			var merged Fact
			if !ok {
				merged = edge
			} else {
				merged = p.Join(in, edge)
			}
			if ok && merged.EqualFact(in) {
				continue
			}
			if ok && p.Widen != nil {
				if merges[s]++; merges[s] > widenAfter {
					merged = p.Widen(s, in, merged)
					if merged.EqualFact(in) {
						continue
					}
				}
			}
			res.In[s] = merged
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}
