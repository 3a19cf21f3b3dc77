package planner

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
)

// Algorithm selects the planning solver.
type Algorithm int

const (
	// AlgoGroup is the linear-time group-based algorithm (Module 2⁺), the
	// production default.
	AlgoGroup Algorithm = iota
	// AlgoHungarian is the basic optimal algorithm via Munkres assignment
	// (Module 2).
	AlgoHungarian
	// AlgoBrute enumerates permutations; usable only for tiny graphs and
	// kept as the optimality oracle for tests.
	AlgoBrute
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoGroup:
		return "group"
	case AlgoHungarian:
		return "hungarian"
	case AlgoBrute:
		return "brute"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Planner computes transformation plans between model graphs.
type Planner struct {
	est  *cost.Estimator
	algo Algorithm
}

// New returns a planner using the given profiled cost estimates and solver.
func New(est *cost.Estimator, algo Algorithm) *Planner {
	return &Planner{est: est, algo: algo}
}

// Estimator returns the planner's cost estimator.
func (p *Planner) Estimator() *cost.Estimator { return p.est }

// Plan computes a transformation plan from src to dst, including the
// safeguard decision: if the estimated transformation cost exceeds loading
// dst from scratch, the plan is flagged LoadFromScratch.
func (p *Planner) Plan(src, dst *model.Graph) *metaop.Plan {
	mp := p.mapping(src, dst)
	plan := BuildPlan(p.est, src, dst, mp)
	plan.ScratchCost = p.est.ModelLoad(dst)
	if plan.EstCost > plan.ScratchCost {
		plan.LoadFromScratch = true
	}
	return plan
}

func (p *Planner) mapping(src, dst *model.Graph) Mapping {
	switch p.algo {
	case AlgoHungarian:
		mx := BuildMatrix(p.est, src, dst)
		rowToCol, _ := hungarian(mx)
		return mappingFromAssignment(mx, rowToCol)
	case AlgoBrute:
		mx := BuildMatrix(p.est, src, dst)
		rowToCol, _ := bruteForce(mx)
		return mappingFromAssignment(mx, rowToCol)
	default:
		return groupMapping(p.est, src, dst)
	}
}

// BuildPlan converts an operation mapping into an executable meta-operator
// plan: substitutions become Replace/Reshape steps, deletions Reduce steps,
// insertions Add steps, and the edge difference under the mapping becomes
// Edge steps. A counting pass sizes the step slice exactly, so a cached plan
// holds no slack.
func BuildPlan(est *cost.Estimator, src, dst *model.Graph, mp Mapping) *metaop.Plan {
	// Edge difference under the mapping: source edges whose mapped image is
	// not a destination edge are removed; destination edges whose endpoints'
	// inverse images are not a source edge are added. A kept edge is neither,
	// so it cancels from both counts.
	srcEdges, dstEdges := src.Edges(), dst.Edges()
	kept := func(e model.Edge) bool {
		mf, mt := mp.SrcToDst[e.From], mp.SrcToDst[e.To]
		return mf >= 0 && mt >= 0 && dst.HasEdge(mf, mt)
	}
	dstToSrc := make([]int, dst.NumOps()) // 1 + the source op mapped onto each destination op; 0 for none
	n := len(mp.Added) + len(srcEdges) + len(dstEdges)
	for i, j := range mp.SrcToDst {
		if j < 0 {
			n++
		} else {
			dstToSrc[j] = i + 1
			n += len(substitution(src.Op(i), dst.Op(j)))
		}
	}
	for _, e := range srcEdges {
		if kept(e) {
			n -= 2
		}
	}

	plan := &metaop.Plan{SrcName: src.Name, DstName: dst.Name, Steps: make([]metaop.Step, 0, n)}
	add := func(s metaop.Step) {
		s.EstCost = metaop.StepCost(est, src, dst, &s)
		plan.Steps = append(plan.Steps, s)
		plan.EstCost += s.EstCost
	}
	for i, j := range mp.SrcToDst {
		if j < 0 {
			add(metaop.Step{Kind: metaop.KindReduce, SrcID: int32(i), DstID: -1})
			continue
		}
		for _, k := range substitution(src.Op(i), dst.Op(j)) {
			add(metaop.Step{Kind: k, SrcID: int32(i), DstID: int32(j)})
		}
	}
	for _, j := range mp.Added {
		add(metaop.Step{Kind: metaop.KindAdd, SrcID: -1, DstID: int32(j)})
	}
	for _, e := range srcEdges {
		if !kept(e) {
			add(metaop.Step{Kind: metaop.KindEdge, SrcID: -1, DstID: -1, EdgeFrom: int32(e.From), EdgeTo: int32(e.To)})
		}
	}
	for _, e := range dstEdges {
		if sf, st := dstToSrc[e.From]-1, dstToSrc[e.To]-1; sf < 0 || st < 0 || !src.HasEdge(sf, st) {
			add(metaop.Step{Kind: metaop.KindEdge, SrcID: -1, DstID: -1, EdgeFrom: int32(e.From), EdgeTo: int32(e.To), EdgeAdd: true})
		}
	}
	return plan
}

// reshapeReplace backs substitution's answers, so they allocate nothing.
var reshapeReplace = []metaop.Kind{metaop.KindReshape, metaop.KindReplace}

// substitution returns the steps that turn a mapped source op into its
// destination op: a Reshape when the shapes differ, then a Replace when the
// destination weights must be written. A perfect match (same shape and
// weights) needs neither and costs nothing.
func substitution(srcOp, dstOp *model.Operation) []metaop.Kind {
	switch {
	case srcOp.Shape != dstOp.Shape && dstOp.HasWeights():
		return reshapeReplace
	case srcOp.Shape != dstOp.Shape:
		return reshapeReplace[:1]
	case srcOp.WeightsID != dstOp.WeightsID:
		return reshapeReplace[1:]
	}
	return nil
}
