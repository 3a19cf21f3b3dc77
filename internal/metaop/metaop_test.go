package metaop

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/model"
)

func mkConv(name string, k, w int, wid uint64) model.Operation {
	return model.Operation{Name: name, Type: model.OpConv2D,
		Shape:     model.Shape{KernelH: k, KernelW: k, InChannels: w, OutChannels: w, Stride: 1},
		WeightsID: wid}
}

func mkChain(name string, ops ...model.Operation) *model.Graph {
	b := model.NewBuilder(name, "test", name)
	for _, op := range ops {
		b.Add(op)
	}
	return b.Graph()
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindReplace: "replace", KindReshape: "reshape", KindReduce: "reduce",
		KindAdd: "add", KindEdge: "edge",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
	if len(Kinds()) != 5 {
		t.Error("Kinds() should list 5 meta-operators")
	}
}

func TestApplyReplaceOnly(t *testing.T) {
	prof := cost.CPU()
	src := mkChain("src", mkConv("c", 3, 8, 1))
	dst := mkChain("dst", mkConv("c", 3, 8, 2))
	p := &Plan{
		SrcName: "src", DstName: "dst",
		Steps: []Step{{Kind: KindReplace, SrcID: 0, DstID: 0}},
	}
	got, elapsed, err := Apply(prof, p, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(dst) {
		t.Fatal("replace did not produce destination")
	}
	if want := prof.ReplaceCost(dst.Op(0)); elapsed != want {
		t.Errorf("elapsed %v, want %v", elapsed, want)
	}
	// Source untouched.
	if src.Op(0).WeightsID != 1 {
		t.Error("Apply mutated the source graph")
	}
}

func TestApplySafeguardPath(t *testing.T) {
	prof := cost.CPU()
	src := mkChain("src", mkConv("c", 3, 8, 1))
	dst := mkChain("dst", mkConv("c", 5, 16, 2), mkConv("c2", 3, 16, 3))
	p := &Plan{LoadFromScratch: true}
	got, elapsed, err := Apply(prof, p, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(dst) {
		t.Fatal("safeguard path did not produce destination")
	}
	if want := prof.ModelLoad(dst).Total(); elapsed != want {
		t.Errorf("safeguard elapsed %v, want scratch load %v", elapsed, want)
	}
	if got == dst {
		t.Error("safeguard should return a clone, not the registry graph")
	}
}

func TestApplyRejectsMalformedPlans(t *testing.T) {
	prof := cost.CPU()
	src := mkChain("src", mkConv("c", 3, 8, 1))
	dst := mkChain("dst", mkConv("c", 3, 8, 2))
	wider := mkChain("wider", mkConv("c", 5, 8, 2))
	pool := mkChain("pool", model.Operation{Name: "p", Type: model.OpMaxPool, Shape: model.Shape{KernelH: 3, KernelW: 3}})
	twoSrc := mkChain("two", mkConv("a", 3, 8, 1), mkConv("b", 3, 8, 3))

	// Each case is well formed but for the one rule it breaks, so want (a
	// fragment of the error) names the check that must reject it.
	cases := []struct {
		name, want string
		src, dst   *model.Graph
		plan       *Plan
	}{
		{"dst id out of range", "out of range", src, dst, &Plan{Steps: []Step{{Kind: KindReplace, SrcID: 0, DstID: 5}}}},
		{"missing src op", "missing source op", src, dst, &Plan{Steps: []Step{{Kind: KindReplace, SrcID: 9, DstID: 0}}}},
		{"missing reduce src", "missing source op", src, dst, &Plan{Steps: []Step{{Kind: KindReduce, SrcID: 9, DstID: -1}}}},
		{"unknown kind", "unknown step kind", src, dst, &Plan{Steps: []Step{{Kind: Kind(77)}}}},
		{"two adds on one slot", "conflicting steps", src, dst, &Plan{Steps: []Step{
			{Kind: KindReduce, SrcID: 0, DstID: -1},
			{Kind: KindAdd, SrcID: -1, DstID: 0},
			{Kind: KindAdd, SrcID: -1, DstID: 0},
		}}},
		{"replace across a shape change with no reshape", "no reshape", src, wider, &Plan{Steps: []Step{
			{Kind: KindReplace, SrcID: 0, DstID: 0},
		}}},
		{"reshape across op types", "onto a", src, pool, &Plan{Steps: []Step{
			{Kind: KindReshape, SrcID: 0, DstID: 0},
		}}},
		{"reshape and replace of one slot from two source ops", "conflicting steps", twoSrc, wider, &Plan{Steps: []Step{
			{Kind: KindReshape, SrcID: 0, DstID: 0},
			{Kind: KindReplace, SrcID: 1, DstID: 0},
			{Kind: KindEdge, SrcID: -1, DstID: -1, EdgeFrom: 0, EdgeTo: 1},
		}}},
		{"one source op consumed into two slots", "consumed twice", src, mkChain("pair", mkConv("a", 3, 8, 2), mkConv("b", 3, 8, 4)), &Plan{Steps: []Step{
			{Kind: KindReplace, SrcID: 0, DstID: 0},
			{Kind: KindReplace, SrcID: 0, DstID: 1},
			{Kind: KindEdge, SrcID: -1, DstID: -1, EdgeFrom: 0, EdgeTo: 1, EdgeAdd: true},
		}}},
	}
	for _, c := range cases {
		if _, _, err := Apply(prof, c.plan, c.src, c.dst); err == nil {
			t.Errorf("%s: Apply accepted malformed plan", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected for the wrong reason: %v", c.name, err)
		}
	}
	// The well-formed counterparts of the shape and slot cases apply.
	ok := []struct {
		name     string
		src, dst *model.Graph
		plan     *Plan
	}{
		{"reshape then replace of one pair", src, wider, &Plan{Steps: []Step{
			{Kind: KindReshape, SrcID: 0, DstID: 0},
			{Kind: KindReplace, SrcID: 0, DstID: 0},
		}}},
		{"reduce then add", src, dst, &Plan{Steps: []Step{
			{Kind: KindReduce, SrcID: 0, DstID: -1},
			{Kind: KindAdd, SrcID: -1, DstID: 0},
		}}},
	}
	for _, c := range ok {
		if err := Verify(prof, c.plan, c.src, c.dst); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestCountAndCostByKind(t *testing.T) {
	p := &Plan{Steps: []Step{
		{Kind: KindReplace, EstCost: 2 * time.Millisecond},
		{Kind: KindReplace, EstCost: 3 * time.Millisecond},
		{Kind: KindAdd, EstCost: 10 * time.Millisecond},
		{Kind: KindEdge, EstCost: 50 * time.Microsecond},
	}}
	counts := p.CountByKind()
	if counts[KindReplace] != 2 || counts[KindAdd] != 1 || counts[KindEdge] != 1 {
		t.Errorf("CountByKind = %v", counts)
	}
	costs := p.CostByKind()
	if costs[KindReplace] != 5*time.Millisecond {
		t.Errorf("CostByKind[replace] = %v", costs[KindReplace])
	}
}

func TestTrueCostSumsSteps(t *testing.T) {
	prof := cost.CPU()
	src := mkChain("src", mkConv("c1", 3, 8, 1), mkConv("c2", 3, 8, 2))
	dst := mkChain("dst", mkConv("c1", 5, 8, 3))
	p := &Plan{Steps: []Step{
		{Kind: KindReshape, SrcID: 0, DstID: 0},
		{Kind: KindReplace, SrcID: 0, DstID: 0},
		{Kind: KindReduce, SrcID: 1, DstID: -1},
		{Kind: KindEdge, EdgeFrom: 0, EdgeTo: 1},
	}}
	want := prof.ReshapeCost(src.Op(0), dst.Op(0)) +
		prof.ReplaceCost(dst.Op(0)) +
		prof.ReduceCost(src.Op(1)) +
		prof.EdgeCost(1)
	if got := p.TrueCost(prof, src, dst); got != want {
		t.Errorf("TrueCost = %v, want %v", got, want)
	}
	gotGraph, elapsed, err := Apply(prof, p, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != want {
		t.Errorf("Apply elapsed %v, want %v", elapsed, want)
	}
	if !gotGraph.Equal(dst) {
		t.Error("transform result mismatch")
	}
}

// TestQuickReplacePlansAlwaysVerify is a property test: for any pair of
// same-structure weight-variant chains, the all-Replace plan reproduces the
// destination exactly.
func TestQuickReplacePlansAlwaysVerify(t *testing.T) {
	prof := cost.CPU()
	f := func(kernels []uint8, seed uint32) bool {
		if len(kernels) == 0 {
			kernels = []uint8{3}
		}
		if len(kernels) > 12 {
			kernels = kernels[:12]
		}
		var srcOps, dstOps []model.Operation
		for i, k := range kernels {
			kk := int(k%5) + 1
			w := 4 + int(k%8)
			srcOps = append(srcOps, mkConv(string(rune('a'+i%26)), kk, w, uint64(seed)+uint64(i)*2+1))
			dstOps = append(dstOps, mkConv(string(rune('a'+i%26)), kk, w, uint64(seed)+uint64(i)*2+2))
		}
		src, dst := mkChain("s", srcOps...), mkChain("d", dstOps...)
		var steps []Step
		for j := range dstOps {
			steps = append(steps, Step{Kind: KindReplace, SrcID: int32(j), DstID: int32(j)})
		}
		return Verify(prof, &Plan{Steps: steps}, src, dst) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStepLayout pins the plan representation: a step is at most 32 bytes and
// holds no pointers, so a cached plan's step array is one flat allocation the
// GC never scans.
func TestStepLayout(t *testing.T) {
	if size := unsafe.Sizeof(Step{}); size > 32 {
		t.Errorf("metaop.Step is %d bytes, want ≤ 32", size)
	}
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		}
		return true // pointer, slice, string, map, interface, chan, func
	}
	if hasPointers(reflect.TypeOf(Step{})) {
		t.Error("metaop.Step holds a pointer; cached plans would be GC-scanned")
	}
}

// TestTrueCostNoAllocs pins the transform serve's pricing: Plan.TrueCost
// reads each step in place and allocates nothing.
func TestTrueCostNoAllocs(t *testing.T) {
	prof := cost.CPU()
	src, dst, plan := benchGraphs()
	var total time.Duration
	if avg := testing.AllocsPerRun(100, func() {
		total += plan.TrueCost(prof, src, dst)
	}); avg != 0 {
		t.Errorf("TrueCost allocates %.1f/op, want 0", avg)
	}
	if total <= 0 {
		t.Error("TrueCost priced the plan at zero")
	}
}
