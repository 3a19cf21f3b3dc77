// Package metaop defines the five in-container transformation meta-operators
// of §4.3 — Replace, Reshape, Reduce, Add and Edge — together with the
// transformation Plan representation and an executor that applies a plan to
// the model graph held in a container.
//
// A plan is produced by the planner (package planner) against *estimated*
// costs; the executor charges *true* costs from the hardware profile and
// verifies that the rewritten graph is identical to the destination model.
package metaop

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/model"
)

// ErrEdgeBalance reports that a plan's declared edge rewiring does not
// balance against the edge-count difference between its source and
// destination graphs — the signature of a truncated or tampered plan.
var ErrEdgeBalance = errors.New("metaop: edge rewiring out of balance")

// CheckEdgeBalance validates the edge-balance invariant: every destination
// edge is either kept from the mapped source wiring or introduced by an
// Edge-add step, and every source edge is either kept or dropped by an
// Edge-remove step, so adds−removes must equal the edge-count difference
// diff. It is used by Apply on every plan execution and by the fan-out tree
// to verify a donor's inherited rewiring ledger before trusting its output.
func CheckEdgeBalance(adds, removes, diff int) error {
	if adds-removes != diff {
		return fmt.Errorf("%w: plan rewires %d−%d edges but the graphs differ by %d (truncated plan?)",
			ErrEdgeBalance, adds, removes, diff)
	}
	return nil
}

// Kind identifies a meta-operator.
type Kind uint8

const (
	// KindReplace overwrites an operation's weights with the destination
	// weights, preserving its structure.
	KindReplace Kind = iota + 1
	// KindReshape modifies an operation's properties (kernel size, channel
	// count, stride) without regenerating it.
	KindReshape
	// KindReduce deletes a source operation that matches nothing in the
	// destination model.
	KindReduce
	// KindAdd creates a destination operation from scratch in the container.
	KindAdd
	// KindEdge changes, removes or adds one dataflow edge.
	KindEdge
)

var kindNames = map[Kind]string{
	KindReplace: "replace",
	KindReshape: "reshape",
	KindReduce:  "reduce",
	KindAdd:     "add",
	KindEdge:    "edge",
}

// String returns the meta-operator's lower-case name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns all meta-operator kinds in a stable order.
func Kinds() []Kind {
	return []Kind{KindReplace, KindReshape, KindReduce, KindAdd, KindEdge}
}

// Step is one meta-operator application within a plan: 32 pointer-free
// bytes that name ops by ID in the plan's source and destination graphs.
type Step struct {
	Kind Kind
	// EdgeAdd marks an Edge step that adds a destination edge; false removes
	// a source edge.
	EdgeAdd bool
	// SrcID is the operation ID in the source graph this step acts on
	// (Replace, Reshape, Reduce). -1 otherwise.
	SrcID int32
	// DstID is the operation ID in the destination graph this step realizes
	// (Replace, Reshape, Add). -1 otherwise.
	DstID int32
	// EdgeFrom/EdgeTo are an Edge step's endpoints: destination IDs for an
	// addition, source IDs for a removal.
	EdgeFrom, EdgeTo int32
	// EstCost is the planner's estimated execution time for this step.
	EstCost time.Duration
}

// Plan is a sequence of meta-operators transforming one model into another,
// plus the safeguard decision of §4.4 Module 3.
type Plan struct {
	SrcName, DstName string
	Steps            []Step
	// EstCost is the planner's total cost estimate for executing the steps.
	EstCost time.Duration
	// ScratchCost is the estimated cost of loading the destination model
	// from scratch instead.
	ScratchCost time.Duration
	// LoadFromScratch is the safeguard decision: when true the transformation
	// would be more expensive than a fresh load and the container should
	// simply load the destination model.
	LoadFromScratch bool
}

// TargetType returns the operation type a step acts on: the destination
// op's type for Replace/Reshape/Add, the source op's type for Reduce;
// ok=false for Edge steps (untyped) and for steps naming a missing op.
func (s *Step) TargetType(src, dst *model.Graph) (model.OpType, bool) {
	var op *model.Operation
	switch s.Kind {
	case KindReplace, KindReshape, KindAdd:
		op = dst.Op(int(s.DstID))
	case KindReduce:
		op = src.Op(int(s.SrcID))
	}
	if op == nil {
		return 0, false
	}
	return op.Type, true
}

// CountByKind tallies the plan's steps per meta-operator.
func (p *Plan) CountByKind() map[Kind]int {
	out := make(map[Kind]int, 5)
	for _, s := range p.Steps {
		out[s.Kind]++
	}
	return out
}

// CostByKind sums the estimated step costs per meta-operator (Fig 15).
func (p *Plan) CostByKind() map[Kind]time.Duration {
	out := make(map[Kind]time.Duration, 5)
	for _, s := range p.Steps {
		out[s.Kind] += s.EstCost
	}
	return out
}

// TrueCost returns the actual execution time of the src→dst plan under the
// given (ground-truth) hardware profile, honoring the safeguard: a
// LoadFromScratch plan costs dst's full load, as in Apply. The simulator
// charges this, not EstCost.
func (p *Plan) TrueCost(prof *cost.Profile, src, dst *model.Graph) time.Duration {
	if p.LoadFromScratch {
		return prof.ModelLoad(dst).Total()
	}
	var total time.Duration
	for i := range p.Steps {
		total += StepCost(prof, src, dst, &p.Steps[i])
	}
	return total
}

// Coster prices the five meta-operators: *cost.Profile with the true
// (hardware) cost a container pays, *cost.Estimator with the planner's
// estimate. Online profiling compares the two to refine estimates (§6).
type Coster interface {
	ReplaceCost(dst *model.Operation) time.Duration
	ReshapeCost(src, dst *model.Operation) time.Duration
	ReduceCost(src *model.Operation) time.Duration
	AddCost(dst *model.Operation) time.Duration
	EdgeCost(n int) time.Duration
}

// StepCost prices one step of a src→dst plan under c. A step naming a
// missing operation, or of unknown kind, costs nothing; Apply rejects it.
func StepCost(c Coster, src, dst *model.Graph, s *Step) time.Duration {
	srcOp, dstOp := src.Op(int(s.SrcID)), dst.Op(int(s.DstID))
	switch {
	case s.Kind == KindReplace && dstOp != nil:
		return c.ReplaceCost(dstOp)
	case s.Kind == KindReshape && srcOp != nil && dstOp != nil:
		return c.ReshapeCost(srcOp, dstOp)
	case s.Kind == KindReduce && srcOp != nil:
		return c.ReduceCost(srcOp)
	case s.Kind == KindAdd && dstOp != nil:
		return c.AddCost(dstOp)
	case s.Kind == KindEdge:
		return c.EdgeCost(1)
	}
	return 0
}

// Apply executes the plan against the source graph, returning the rewritten
// graph and the true execution time under prof. It rejects a malformed plan:
// a step names a missing op, maps an op onto one of another type, or
// Replaces across a shape change without first Reshaping the same pair; two
// origins (Adds or source ops) realize one destination slot; or a source op
// is consumed twice.
//
// Apply never mutates src.
func Apply(prof *cost.Profile, p *Plan, src *model.Graph, dst *model.Graph) (*model.Graph, time.Duration, error) {
	if p.LoadFromScratch {
		// Safeguard: the container discards the old model and loads fresh.
		return dst.Clone(), prof.ModelLoad(dst).Total(), nil
	}
	// slotFrom[j] is what realizes destination slot j: 0 nothing yet, i+1
	// source op i, negative an Add. srcTo[i] is where source op i went: 0
	// nowhere yet (it may carry over), -1 reduced, j+1 slot j.
	slotFrom := make([]int32, dst.NumOps())
	srcTo := make([]int32, src.NumOps())
	reshaped := make([]bool, dst.NumOps())
	claim := func(ids []int32, i, v int32) bool {
		if ids[i] != 0 && ids[i] != v {
			return false
		}
		ids[i] = v
		return true
	}
	type edgeKey struct {
		from, to int32
		add      bool
	}
	seenEdges := make(map[edgeKey]bool)
	var edgeAdds, edgeRemoves int
	var elapsed time.Duration

	for k := range p.Steps {
		s := &p.Steps[k]
		elapsed += StepCost(prof, src, dst, s)
		srcOp, dstOp := src.Op(int(s.SrcID)), dst.Op(int(s.DstID))
		switch s.Kind {
		case KindReplace, KindReshape, KindAdd:
			from := -int32(k) - 1 // an Add is an origin of its own
			switch {
			case dstOp == nil:
				return nil, 0, fmt.Errorf("metaop: step %s has destination ID %d out of range", s.Kind, s.DstID)
			case s.Kind == KindAdd:
			case srcOp == nil:
				return nil, 0, fmt.Errorf("metaop: step %s references missing source op %d", s.Kind, s.SrcID)
			case srcOp.Type != dstOp.Type:
				return nil, 0, fmt.Errorf("metaop: step %s maps a %v source op onto a %v destination op", s.Kind, srcOp.Type, dstOp.Type)
			case !claim(srcTo, s.SrcID, s.DstID+1):
				return nil, 0, fmt.Errorf("metaop: source op %d is consumed twice", s.SrcID)
			default:
				from = s.SrcID + 1
			}
			if !claim(slotFrom, s.DstID, from) {
				return nil, 0, fmt.Errorf("metaop: conflicting steps for destination op %d", s.DstID)
			}
			if s.Kind == KindReshape {
				reshaped[s.DstID] = true
			} else if s.Kind == KindReplace && srcOp.Shape != dstOp.Shape && !reshaped[s.DstID] {
				return nil, 0, fmt.Errorf("metaop: replace changes source op %d's shape with no reshape before it", s.SrcID)
			}
		case KindReduce:
			if srcOp == nil {
				return nil, 0, fmt.Errorf("metaop: reduce references missing source op %d", s.SrcID)
			}
			if !claim(srcTo, s.SrcID, -1) {
				return nil, 0, fmt.Errorf("metaop: source op %d is consumed twice", s.SrcID)
			}
		case KindEdge:
			// Edges are applied after all slots are realized; a plan that
			// charges the same edge diff twice is corrupt.
			ek := edgeKey{s.EdgeFrom, s.EdgeTo, s.EdgeAdd}
			if seenEdges[ek] {
				return nil, 0, fmt.Errorf("metaop: duplicate edge step %d→%d (add=%v)", s.EdgeFrom, s.EdgeTo, s.EdgeAdd)
			}
			seenEdges[ek] = true
			// Additions are phrased in destination IDs, removals in source
			// IDs; a step referencing wiring neither graph has is corrupt.
			if s.EdgeAdd {
				if !dst.HasEdge(int(s.EdgeFrom), int(s.EdgeTo)) {
					return nil, 0, fmt.Errorf("metaop: edge step adds %d→%d, which is not a destination edge", s.EdgeFrom, s.EdgeTo)
				}
				edgeAdds++
			} else {
				if !src.HasEdge(int(s.EdgeFrom), int(s.EdgeTo)) {
					return nil, 0, fmt.Errorf("metaop: edge step removes %d→%d, which is not a source edge", s.EdgeFrom, s.EdgeTo)
				}
				edgeRemoves++
			}
		default:
			return nil, 0, fmt.Errorf("metaop: unknown step kind %d", s.Kind)
		}
	}

	// Source ops that were neither substituted nor reduced carry over only if
	// they are already identical to their destination slot: the planner emits
	// no step exactly when source and destination ops match perfectly on
	// (Type, Shape, WeightsID). An unrealized slot with no such unconsumed
	// source op available is a hole the plan never filled — the container
	// has no bit-identical state to keep there, so the plan is rejected
	// rather than silently completed from dst.
	type opKey struct {
		typ       model.OpType
		shape     model.Shape
		weightsID uint64
	}
	avail := make(map[opKey]int)
	for i, to := range srcTo {
		if to == 0 {
			op := src.Op(i)
			avail[opKey{op.Type, op.Shape, op.WeightsID}]++
		}
	}
	for j, from := range slotFrom {
		if from != 0 {
			continue
		}
		op := dst.Op(j)
		k := opKey{op.Type, op.Shape, op.WeightsID}
		if avail[k] <= 0 {
			return nil, 0, fmt.Errorf("metaop: destination op %d is realized by no step and no identical source op carries over (truncated plan?)", j)
		}
		avail[k]--
	}
	// A truncated edge list breaks the adds−removes balance (see
	// CheckEdgeBalance).
	if err := CheckEdgeBalance(edgeAdds, edgeRemoves, dst.NumEdges()-src.NumEdges()); err != nil {
		return nil, 0, err
	}
	// Every slot now holds its destination op and the plan's Edge steps
	// rewire the mapped source edges into the destination dataflow, so the
	// realized graph is the destination model.
	return dst.Clone(), elapsed, nil
}

// Verify applies the plan and reports whether it reproduces the destination
// model exactly (structure and weights): Apply realizes every slot from its
// destination op only after checking the step that claims it, so a plan it
// accepts yields dst. It is the executor's post-condition and is exercised
// heavily in tests.
func Verify(prof *cost.Profile, p *Plan, src, dst *model.Graph) error {
	_, _, err := Apply(prof, p, src, dst)
	return err
}
