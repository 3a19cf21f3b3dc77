package metaop

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/model"
)

func benchGraphs() (*model.Graph, *model.Graph, *Plan) {
	src := model.NewGraph("src", "bench")
	dst := model.NewGraph("dst", "bench")
	var p Plan
	for i := 0; i < 64; i++ {
		srcOp := mkConv("c", 3, 64, uint64(i)+1)
		dstOp := mkConv("c", 3, 64, uint64(i)+1000)
		_ = src.AddOp(srcOp)
		_ = dst.AddOp(dstOp)
		if i > 0 {
			src.Connect(i-1, i)
			dst.Connect(i-1, i)
		}
		p.Steps = append(p.Steps, Step{Kind: KindReplace, SrcID: int32(i), DstID: int32(i)})
	}
	return src, dst, &p
}

func BenchmarkApplyReplacePlan(b *testing.B) {
	prof := cost.CPU()
	src, dst, plan := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Apply(prof, plan, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrueCost(b *testing.B) {
	prof := cost.CPU()
	src, dst, plan := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.TrueCost(prof, src, dst) <= 0 {
			b.Fatal("zero cost")
		}
	}
}
