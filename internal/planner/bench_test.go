package planner

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/zoo"
)

func benchPair(b *testing.B, algo Algorithm, src, dst string) {
	img := zoo.Imgclsmob()
	s, d := img.MustGet(src), img.MustGet(dst)
	pl := New(cost.Exact(cost.CPU()), algo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Plan(s, d) == nil {
			b.Fatal("nil plan")
		}
	}
}

func BenchmarkGroupSameFamily(b *testing.B) {
	benchPair(b, AlgoGroup, "resnet50-imagenet", "resnet101-imagenet")
}
func BenchmarkGroupCrossFamily(b *testing.B) {
	benchPair(b, AlgoGroup, "vgg16-imagenet", "densenet121-imagenet")
}
func BenchmarkHungarianSameFamily(b *testing.B) {
	benchPair(b, AlgoHungarian, "resnet50-imagenet", "resnet101-imagenet")
}
func BenchmarkBuildMatrix(b *testing.B) {
	img := zoo.Imgclsmob()
	s, d := img.MustGet("resnet50-imagenet"), img.MustGet("vgg16-imagenet")
	est := cost.Exact(cost.CPU())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if BuildMatrix(est, s, d) == nil {
			b.Fatal("nil matrix")
		}
	}
}

// benchPrecompute warms every ordered pair of the §8.1 catalog through the
// offline-planning pipeline with the given worker count (0 = GOMAXPROCS).
func benchPrecompute(b *testing.B, workers int) {
	models := catalogZoo()
	pl := New(cost.Exact(cost.CPU()), AlgoGroup)
	pairs := len(models) * (len(models) - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPrecomputer(pl, NewCache(), workers).PrecomputeAll(models)
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}

func BenchmarkPrecomputeSerial(b *testing.B)   { benchPrecompute(b, 1) }
func BenchmarkPrecomputeParallel(b *testing.B) { benchPrecompute(b, 0) }
