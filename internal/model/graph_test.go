package model

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("tiny", "test", "tiny")
	in := b.Input(3)
	b.Conv("c1", 3, 3, 16, 1)
	b.ReLU("r1", 16)
	b.Conv("c2", 3, 16, 32, 2)
	b.Output(32)
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	_ = in
	return g
}

func TestGraphBasics(t *testing.T) {
	g := smallGraph(t)
	if got := g.NumOps(); got != 5 {
		t.Fatalf("NumOps = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge direction wrong")
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("topo order violates edge %v", e)
		}
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph("cyc", "test")
	a := g.AddOp(Operation{Name: "a", Type: OpReLU, Shape: Shape{OutChannels: 1}})
	b := g.AddOp(Operation{Name: "b", Type: OpReLU, Shape: Shape{OutChannels: 1}})
	g.Connect(a.ID, b.ID)
	g.Connect(b.ID, a.ID)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a cyclic graph")
	}
}

func TestGraphValidateRejectsEmptyAndInvalid(t *testing.T) {
	if err := NewGraph("empty", "test").Validate(); err == nil {
		t.Error("Validate accepted empty graph")
	}
	g := NewGraph("bad", "test")
	g.AddOp(Operation{Name: "x", Type: OpInvalid})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted invalid op type")
	}
	g2 := NewGraph("badw", "test")
	g2.AddOp(Operation{Name: "c", Type: OpConv2D}) // weighted, zero shape
	if err := g2.Validate(); err == nil {
		t.Error("Validate accepted weighted op with no weights")
	}
}

func TestConnectDisconnect(t *testing.T) {
	g := smallGraph(t)
	g.Connect(0, 2)
	if !g.HasEdge(0, 2) {
		t.Fatal("Connect failed")
	}
	n := g.NumEdges()
	g.Connect(0, 2) // duplicate ignored
	if g.NumEdges() != n {
		t.Fatal("duplicate edge changed edge count")
	}
	g.Disconnect(0, 2)
	if g.HasEdge(0, 2) || g.NumEdges() != n-1 {
		t.Fatal("Disconnect failed")
	}
	g.Disconnect(0, 2) // no-op
	if g.NumEdges() != n-1 {
		t.Fatal("double Disconnect changed edge count")
	}

	// Edges are sorted by (From, To) whatever order Connect saw them in.
	g.Connect(0, 4)
	g.Connect(2, 4)
	g.Connect(0, 3)
	g.Connect(1, 4)
	g.Connect(0, 2)
	want := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := smallGraph(t)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	c.Op(1).Shape.OutChannels = 999
	c.Disconnect(0, 1)
	if g.Op(1).Shape.OutChannels == 999 {
		t.Fatal("clone shares op storage with original")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("clone shares edge storage with original")
	}
}

func TestEqualAndStructuralEqual(t *testing.T) {
	g := smallGraph(t)
	c := g.Clone()
	c.Op(1).WeightsID = 12345
	if g.Equal(c) {
		t.Fatal("Equal ignored weight identity")
	}
	if !g.StructuralEqual(c) {
		t.Fatal("StructuralEqual should ignore weight identity")
	}
	c.Op(1).Shape.KernelH = 5
	c.Op(1).Shape.KernelW = 5
	if g.StructuralEqual(c) {
		t.Fatal("StructuralEqual ignored a shape change")
	}
}

func TestStructureHash(t *testing.T) {
	g := smallGraph(t)
	c := g.Clone()
	if g.StructureHash() != c.StructureHash() {
		t.Fatal("identical graphs hash differently")
	}
	c.Op(3).Shape.OutChannels = 64
	if g.StructureHash() == c.StructureHash() {
		t.Fatal("shape change did not change structure hash")
	}
	c2 := g.Clone()
	c2.Op(2).WeightsID = 777 // ReLU has no weights but field set anyway
	if g.StructureHash() != c2.StructureHash() {
		t.Fatal("weights change affected structure hash")
	}
	if g.WeightsHash() != c2.WeightsHash() {
		t.Fatal("non-weighted op's WeightsID affected weights hash")
	}
	c3 := g.Clone()
	c3.Op(1).WeightsID = 777
	if g.WeightsHash() == c3.WeightsHash() {
		t.Fatal("weighted op's WeightsID did not affect weights hash")
	}
}

func TestWeightCount(t *testing.T) {
	cases := []struct {
		op   Operation
		want int64
	}{
		{Operation{Type: OpConv2D, Shape: Shape{KernelH: 3, KernelW: 3, InChannels: 64, OutChannels: 128}}, 3*3*64*128 + 128},
		{Operation{Type: OpDepthwiseConv2D, Shape: Shape{KernelH: 3, KernelW: 3, InChannels: 64}}, 3*3*64 + 64},
		{Operation{Type: OpDense, Shape: Shape{InChannels: 512, OutChannels: 10}}, 512*10 + 10},
		{Operation{Type: OpBatchNorm, Shape: Shape{OutChannels: 64}}, 256},
		{Operation{Type: OpLayerNorm, Shape: Shape{OutChannels: 768}}, 1536},
		{Operation{Type: OpEmbedding, Shape: Shape{InChannels: 30522, OutChannels: 768}}, 30522 * 768},
		{Operation{Type: OpQuery, Shape: Shape{InChannels: 768, OutChannels: 768}}, 768*768 + 768},
		{Operation{Type: OpCRF, Shape: Shape{OutChannels: 9}}, 81},
		{Operation{Type: OpReLU, Shape: Shape{OutChannels: 64}}, 0},
		{Operation{Type: OpMaxPool, Shape: Shape{KernelH: 2, KernelW: 2, OutChannels: 64}}, 0},
	}
	for _, c := range cases {
		if got := c.op.WeightCount(); got != c.want {
			t.Errorf("%s WeightCount = %d, want %d", c.op.Type, got, c.want)
		}
		if got := c.op.WeightBytes(); got != 4*c.want {
			t.Errorf("%s WeightBytes = %d, want %d", c.op.Type, got, 4*c.want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	for _, tt := range AllOpTypes() {
		if !tt.Valid() {
			t.Errorf("%v reported invalid", tt)
		}
	}
	if OpInvalid.Valid() || opTypeCount.Valid() {
		t.Error("sentinel types reported valid")
	}
	if !OpConv2D.HasWeights() || OpReLU.HasWeights() || OpAdd.HasWeights() {
		t.Error("HasWeights wrong")
	}
	if !OpReLU.IsActivation() || OpConv2D.IsActivation() {
		t.Error("IsActivation wrong")
	}
	if !OpQuery.IsTransformer() || OpConv2D.IsTransformer() {
		t.Error("IsTransformer wrong")
	}
}

func TestOpTypeRoundTrip(t *testing.T) {
	for _, tt := range AllOpTypes() {
		got, err := OpTypeFromString(tt.String())
		if err != nil {
			t.Fatalf("OpTypeFromString(%q): %v", tt.String(), err)
		}
		if got != tt {
			t.Fatalf("round trip %v -> %q -> %v", tt, tt.String(), got)
		}
	}
	if _, err := OpTypeFromString("bogus"); err == nil {
		t.Fatal("OpTypeFromString accepted bogus name")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := smallGraph(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !g.Equal(&back) {
		t.Fatal("JSON round trip lost information")
	}
	if back.Name != g.Name || back.Family != g.Family {
		t.Fatal("JSON round trip lost metadata")
	}
}

func TestJSONRejectsBadInput(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"name":"x","ops":[{"name":"a","type":"nope"}],"edges":[]}`), &g); err == nil {
		t.Error("accepted unknown op type")
	}
	if err := json.Unmarshal([]byte(`{"name":"x","ops":[{"name":"a","type":"relu","out":1}],"edges":[[0,5]]}`), &g); err == nil {
		t.Error("accepted out-of-range edge")
	}
	if err := json.Unmarshal([]byte(`{{`), &g); err == nil {
		t.Error("accepted malformed JSON")
	}
}

func TestStats(t *testing.T) {
	g := smallGraph(t)
	st := g.Stats()
	if st.Ops != 5 || st.Edges != 4 {
		t.Fatalf("Stats ops/edges = %d/%d", st.Ops, st.Edges)
	}
	if st.WeightedOps != 2 {
		t.Fatalf("WeightedOps = %d, want 2", st.WeightedOps)
	}
	wantParams := int64(3*3*3*16+16) + int64(3*3*16*32+32)
	if st.Params != wantParams {
		t.Fatalf("Params = %d, want %d", st.Params, wantParams)
	}
	if st.Bytes != 4*wantParams {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, 4*wantParams)
	}
	if st.ByType[OpConv2D] != 2 || st.ByType[OpReLU] != 1 {
		t.Fatalf("ByType wrong: %v", st.ByType)
	}
}

func TestWeightsIDFor(t *testing.T) {
	a := WeightsIDFor("bert-base", "blk0.query")
	b := WeightsIDFor("bert-base", "blk0.query")
	c := WeightsIDFor("bert-base", "blk1.query")
	d := WeightsIDFor("bert-mini", "blk0.query")
	if a != b {
		t.Error("WeightsIDFor not deterministic")
	}
	if a == c || a == d {
		t.Error("WeightsIDFor collisions across tensors/scopes")
	}
	if a == 0 {
		t.Error("WeightsIDFor returned reserved zero")
	}
}

func TestBuilderBranches(t *testing.T) {
	b := NewBuilder("branchy", "test", "")
	in := b.Input(8)
	left := b.Conv("l", 3, 8, 8, 1)
	b.SetTail(in)
	right := b.Conv("r", 1, 8, 8, 1)
	merged := b.AddMerge("add", 8, left, right)
	b.Output(8)
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.HasEdge(left, merged) || !g.HasEdge(right, merged) {
		t.Fatal("merge edges missing")
	}
	if !g.HasEdge(in, left) || !g.HasEdge(in, right) {
		t.Fatal("branch edges missing")
	}
	// Builder-assigned weight IDs should be deterministic per scope.
	b2 := NewBuilder("branchy", "test", "")
	b2.Input(8)
	l2 := b2.Conv("l", 3, 8, 8, 1)
	if g.Op(left).WeightsID != b2.Graph().Op(l2).WeightsID {
		t.Fatal("builder weight IDs not deterministic")
	}
}

func TestConnectPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Connect out of range did not panic")
		}
	}()
	g := NewGraph("x", "test")
	g.AddOp(Operation{Name: "a", Type: OpReLU, Shape: Shape{OutChannels: 1}})
	g.Connect(0, 3)
}

func TestDOT(t *testing.T) {
	g := smallGraph(t)
	dot := g.DOT()
	if !strings.HasPrefix(dot, "digraph") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("malformed DOT output: %q", dot)
	}
	for _, op := range g.Ops() {
		if !strings.Contains(dot, op.Name) {
			t.Errorf("DOT missing op %s", op.Name)
		}
	}
	if !strings.Contains(dot, "n0 -> n1") {
		t.Error("DOT missing edges")
	}
	// Weighted ops are boxes; weight-free ellipses.
	if !strings.Contains(dot, "shape=box") || !strings.Contains(dot, "shape=ellipse") {
		t.Error("DOT shapes missing")
	}
}
