package metaop_test

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/zoo"
)

func conv(name string, k, w int, wid uint64) model.Operation {
	return model.Operation{Name: name, Type: model.OpConv2D,
		Shape:     model.Shape{KernelH: k, KernelW: k, InChannels: w, OutChannels: w, Stride: 1},
		WeightsID: wid}
}

func chain(name string, ops ...model.Operation) *model.Graph {
	b := model.NewBuilder(name, "test", name)
	for _, op := range ops {
		b.Add(op)
	}
	return b.Graph()
}

// realPlan builds a genuine planner plan between two zoo models, as the
// production path does, so the corruption tests mutate realistic step lists
// rather than synthetic ones.
func realPlan(t *testing.T, srcName, dstName string) (*metaop.Plan, *model.Graph, *model.Graph) {
	t.Helper()
	img := zoo.Imgclsmob()
	src, dst := img.MustGet(srcName), img.MustGet(dstName)
	prof := cost.CPU()
	p := planner.New(cost.Exact(prof), planner.AlgoGroup).Plan(src, dst)
	if p.LoadFromScratch {
		t.Fatalf("pair %s→%s takes the safeguard path; pick a transformable pair", srcName, dstName)
	}
	if len(p.Steps) == 0 {
		t.Fatalf("pair %s→%s has an empty plan", srcName, dstName)
	}
	if err := metaop.Verify(prof, p, src, dst); err != nil {
		t.Fatalf("pristine plan does not verify: %v", err)
	}
	return p, src, dst
}

func clonePlan(p *metaop.Plan) *metaop.Plan {
	cp := *p
	cp.Steps = append([]metaop.Step(nil), p.Steps...)
	return &cp
}

// TestVerifyRejectsCorruptedPlans adversarially mutates a real planner plan
// — truncating the step list, swapping step targets, duplicating Edge steps,
// retargeting substitutions — and asserts Verify rejects every mutation. A
// corrupted plan silently "verifying" would mean the executor could declare a
// wrong model graph correct.
func TestVerifyRejectsCorruptedPlans(t *testing.T) {
	prof := cost.CPU()
	p, src, dst := realPlan(t, "resnet18-imagenet", "resnet34-imagenet")

	substIdx := -1 // first Replace/Reshape step, the richest mutation target
	for i, s := range p.Steps {
		if s.Kind == metaop.KindReplace || s.Kind == metaop.KindReshape {
			substIdx = i
			break
		}
	}
	if substIdx < 0 {
		t.Fatal("plan has no substitution step to corrupt")
	}

	mutations := []struct {
		name   string
		mutate func(cp *metaop.Plan) bool // false = mutation not applicable
	}{
		{"drop last step", func(cp *metaop.Plan) bool {
			cp.Steps = cp.Steps[:len(cp.Steps)-1]
			return true
		}},
		{"drop first step", func(cp *metaop.Plan) bool {
			cp.Steps = cp.Steps[1:]
			return true
		}},
		{"truncate to first half", func(cp *metaop.Plan) bool {
			cp.Steps = cp.Steps[:len(cp.Steps)/2]
			return len(cp.Steps) < len(p.Steps)
		}},
		{"drop one substitution step", func(cp *metaop.Plan) bool {
			cp.Steps = append(cp.Steps[:substIdx:substIdx], cp.Steps[substIdx+1:]...)
			return true
		}},
		{"retarget substitution to wrong dst slot", func(cp *metaop.Plan) bool {
			// Point the step at another destination slot: its own slot is
			// left unrealized and the other slot gains a second origin.
			s := &cp.Steps[substIdx]
			s.DstID = (s.DstID + 1) % int32(dst.NumOps())
			return true
		}},
		{"swap two steps' destination slots", func(cp *metaop.Plan) bool {
			var idx []int
			for i, s := range cp.Steps {
				if s.Kind == metaop.KindReplace || s.Kind == metaop.KindReshape || s.Kind == metaop.KindAdd {
					idx = append(idx, i)
				}
			}
			for a := 0; a < len(idx); a++ {
				for b := a + 1; b < len(idx); b++ {
					i, j := idx[a], idx[b]
					if cp.Steps[i].DstID == cp.Steps[j].DstID {
						continue
					}
					cp.Steps[i].DstID, cp.Steps[j].DstID = cp.Steps[j].DstID, cp.Steps[i].DstID
					return true
				}
			}
			return false
		}},
		{"duplicate an edge step", func(cp *metaop.Plan) bool {
			for _, s := range cp.Steps {
				if s.Kind == metaop.KindEdge {
					cp.Steps = append(cp.Steps, s)
					return true
				}
			}
			return false
		}},
		{"inject duplicate edge pair", func(cp *metaop.Plan) bool {
			e := metaop.Step{Kind: metaop.KindEdge, EdgeFrom: 0, EdgeTo: 1, EdgeAdd: true}
			cp.Steps = append(cp.Steps, e, e)
			return true
		}},
		{"retarget substitution to missing source op", func(cp *metaop.Plan) bool {
			s := cp.Steps[substIdx]
			s.SrcID = int32(src.NumOps()) + 100
			cp.Steps[substIdx] = s
			return true
		}},
	}

	applied := 0
	for _, m := range mutations {
		cp := clonePlan(p)
		if !m.mutate(cp) {
			t.Logf("mutation %q not applicable to this plan", m.name)
			continue
		}
		applied++
		if err := metaop.Verify(prof, cp, src, dst); err == nil {
			t.Errorf("mutation %q: corrupted plan verified as correct", m.name)
		}
	}
	if applied < 6 {
		t.Fatalf("only %d mutations applied; the plan is too small to be a meaningful target", applied)
	}
}

// TestApplyRejectsTruncatedCarryOver pins the carry-over rule directly: a
// destination slot with no step and no identical unconsumed source op is a
// truncated plan, not a silent fill-from-dst.
func TestApplyRejectsTruncatedCarryOver(t *testing.T) {
	prof := cost.CPU()
	src := chain("src", conv("a", 3, 8, 1), conv("b", 3, 8, 2))
	dst := chain("dst", conv("a", 3, 8, 1), conv("b", 3, 8, 9))

	full := &metaop.Plan{Steps: []metaop.Step{
		{Kind: metaop.KindReplace, SrcID: 1, DstID: 1},
	}}
	if err := metaop.Verify(prof, full, src, dst); err != nil {
		t.Fatalf("valid single-replace plan rejected: %v", err)
	}

	// Op 0 matches perfectly and carries over; op 1 differs (WeightsID 2 vs
	// 9) and NEEDS its Replace step. An empty plan must therefore fail.
	truncated := &metaop.Plan{}
	if _, _, err := metaop.Apply(prof, truncated, src, dst); err == nil {
		t.Fatal("empty plan filled differing slot from dst")
	} else if !strings.Contains(err.Error(), "no identical source op") {
		t.Fatalf("unexpected rejection: %v", err)
	}

	// A source op consumed by a step can no longer double as carry-over for
	// an identical destination slot: only the unrelated op 1 remains
	// unconsumed, and it doesn't match dst slot 1.
	src2 := chain("src2", conv("a", 3, 8, 1), conv("b", 3, 8, 5))
	dst2 := chain("dst2", conv("a", 3, 8, 1), conv("a", 3, 8, 1))
	consuming := &metaop.Plan{Steps: []metaop.Step{
		{Kind: metaop.KindReplace, SrcID: 0, DstID: 0},
	}}
	if _, _, err := metaop.Apply(prof, consuming, src2, dst2); err == nil {
		t.Fatal("consumed source op was reused as carry-over")
	} else if !strings.Contains(err.Error(), "no identical source op") {
		t.Fatalf("unexpected rejection: %v", err)
	}

	// Identical-op carry-over still works when genuinely available: two
	// identical source ops, one consumed, one carrying over.
	src3 := chain("src3", conv("a", 3, 8, 1), conv("b", 3, 8, 1))
	dst3 := chain("dst3", conv("a", 3, 8, 1), conv("b", 3, 8, 1))
	partial := &metaop.Plan{Steps: []metaop.Step{
		{Kind: metaop.KindReplace, SrcID: 0, DstID: 0},
	}}
	if err := metaop.Verify(prof, partial, src3, dst3); err != nil {
		t.Fatalf("legitimate carry-over rejected: %v", err)
	}
}
