package optimus

// One benchmark per paper table and figure (regenerating its data), plus
// microbenchmarks of the core primitives. The experiment benchmarks run in
// Quick mode so `go test -bench=.` stays bounded; use cmd/optimus-bench for
// full-scale runs.

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/planner"
	"repro/internal/zoo"
)

func benchOpts() experiments.Options { return experiments.Options{Quick: true, Seed: 1} }

func benchSetup() experiments.ClusterSetup {
	return experiments.ClusterSetup{Nodes: 4, ContainersPerNode: 2, Horizon: 6 * time.Hour}
}

// ---------------------------------------------------------------- Figures

func BenchmarkFig2RequestBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(benchOpts())
		if len(r.Rows) != 6 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig3LoadingSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchOpts(), 100)
		if r.StructureFrac == 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig4OpLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(benchOpts())
		if len(r.Rows) == 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig5aStrawmanReplace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5a(benchOpts())
		if r.MeanReduction <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig5cReshapeMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5c(benchOpts(), nil, 0)
		if len(r.Matrix) == 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig8MetaOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOpts())
		if len(r.Rows) == 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig11TransformMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(benchOpts())
		if len(r.Models) != 21 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig12LargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchOpts(), 40)
		if r.ImgReduction <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig13ServiceTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(benchOpts(), benchSetup())
		if len(r.Cells) != 8 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig14StartKinds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(benchOpts(), benchSetup())
		if r.RenderFig14() == "" {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig15MetaOpProportions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15(benchOpts())
		if len(r.Cases) != 4 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig16GPUServiceTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16(benchOpts(), benchSetup())
		if r.Profile != "gpu" {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkTable1Planning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchOpts())
		if len(r.Cases) != 3 {
			b.Fatal("bad result")
		}
	}
}

// ---------------------------------------------------------------- Ablations

func BenchmarkAblationPlannerQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationPlannerQuality(benchOpts(), 10)
	}
}

func BenchmarkAblationSafeguard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSafeguard(benchOpts(), 10)
	}
}

func BenchmarkAblationPlanCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationPlanCache(benchOpts(), 50)
	}
}

func BenchmarkAblationBalancer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationBalancer(benchOpts(), benchSetup())
	}
}

func BenchmarkAblationIdleThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationIdleThreshold(benchOpts(), benchSetup(),
			[]time.Duration{30 * time.Second, 5 * time.Minute})
	}
}

// ---------------------------------------------------------------- Core primitives

func BenchmarkGroupPlannerVGG16ToResNet50(b *testing.B) {
	img := zoo.Imgclsmob()
	src, dst := img.MustGet("vgg16-imagenet"), img.MustGet("resnet50-imagenet")
	pl := planner.New(cost.Exact(cost.CPU()), planner.AlgoGroup)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Plan(src, dst) == nil {
			b.Fatal("nil plan")
		}
	}
}

func BenchmarkHungarianPlannerVGG16ToResNet50(b *testing.B) {
	img := zoo.Imgclsmob()
	src, dst := img.MustGet("vgg16-imagenet"), img.MustGet("resnet50-imagenet")
	pl := planner.New(cost.Exact(cost.CPU()), planner.AlgoHungarian)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Plan(src, dst) == nil {
			b.Fatal("nil plan")
		}
	}
}

func BenchmarkGroupPlannerBERTBaseToMini(b *testing.B) {
	bz := zoo.BERTZoo()
	src, dst := bz.MustGet("bert-base-uncased"), bz.MustGet("bert-mini")
	pl := planner.New(cost.Exact(cost.CPU()), planner.AlgoGroup)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Plan(src, dst) == nil {
			b.Fatal("nil plan")
		}
	}
}

func BenchmarkPlanCacheHit(b *testing.B) {
	tf := NewTransformer(CPU, AlgoGroup)
	img := Imgclsmob()
	src, dst := img.MustGet("resnet50-imagenet"), img.MustGet("resnet101-imagenet")
	tf.Plan(src, dst) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tf.Plan(src, dst) == nil {
			b.Fatal("nil plan")
		}
	}
}

func BenchmarkTransformExecuteResNet50To101(b *testing.B) {
	tf := NewTransformer(CPU, AlgoGroup)
	img := Imgclsmob()
	src, dst := img.MustGet("resnet50-imagenet"), img.MustGet("resnet101-imagenet")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tf.Transform(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZooBuildResNet152(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := zoo.ResNet(zoo.ResNetConfig{Depth: 152}, 1000, "bench")
		if g.NumOps() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkZooBuildBERTBase(b *testing.B) {
	cfg := zoo.BERTConfig{Name: "bench-bert", Blocks: 12, Hidden: 768, Heads: 12, Vocab: 30522}
	for i := 0; i < b.N; i++ {
		g := zoo.BERT(cfg)
		if g.NumOps() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkNASBenchGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := zoo.NASBenchModel(i%zoo.NASBenchSize, 5, 10)
		if err != nil || g.NumOps() == 0 {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	img := Imgclsmob()
	names := []string{"resnet18-imagenet", "resnet50-imagenet", "vgg16-imagenet", "densenet121-imagenet"}
	trace := MixedPoissonTrace(names, 24*time.Hour, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := NewSystem(SystemConfig{Nodes: 2, ContainersPerNode: 2})
		for _, n := range names {
			sys.MustRegister(n, img.MustGet(n))
		}
		rep, err := sys.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Metrics.Count() != trace.Len() {
			b.Fatal("dropped requests")
		}
	}
	b.ReportMetric(float64(trace.Len()), "requests/op")
}

func BenchmarkAblationOnlineProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationOnlineProfiling(benchOpts(), benchSetup())
	}
}

func BenchmarkAblationAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationAllocation(benchOpts(), benchSetup())
	}
}

func BenchmarkSweepNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Scalability(benchOpts(), []int{2, 4}, 4*time.Hour)
	}
}

func BenchmarkSweepLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.LoadSweep(benchOpts(), []int{10, 20}, 4*time.Hour)
	}
}
