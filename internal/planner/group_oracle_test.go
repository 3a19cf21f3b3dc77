package planner

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/zoo"
)

// groupMappingOracle is the map-based group matcher the pooled, hash-free
// groupMapping replaced. It is kept as the oracle: both must return the same
// Mapping on every input.
func groupMappingOracle(est *cost.Estimator, src, dst *model.Graph) Mapping {
	srcOrder := topoOrder(src)
	dstOrder := topoOrder(dst)

	srcGroups := make(map[model.OpType][]int)
	for _, id := range srcOrder {
		t := src.Op(id).Type
		srcGroups[t] = append(srcGroups[t], id)
	}
	dstGroups := make(map[model.OpType][]int)
	for _, id := range dstOrder {
		t := dst.Op(id).Type
		dstGroups[t] = append(dstGroups[t], id)
	}

	mp := Mapping{SrcToDst: make([]int, src.NumOps())}
	for i := range mp.SrcToDst {
		mp.SrcToDst[i] = -1
	}
	matched := make([]bool, dst.NumOps())
	for t, srcIDs := range srcGroups {
		matchGroupOracle(est, src, dst, srcIDs, dstGroups[t], mp.SrcToDst, matched)
	}
	for j := 0; j < dst.NumOps(); j++ {
		if !matched[j] {
			mp.Added = append(mp.Added, j)
		}
	}
	return mp
}

func matchGroupOracle(est *cost.Estimator, src, dst *model.Graph, srcIDs, dstIDs []int, srcToDst []int, matched []bool) {
	pair := func(i, j int) {
		srcToDst[i] = j
		matched[j] = true
	}
	srcLeft := append([]int(nil), srcIDs...)
	dstLeft := append([]int(nil), dstIDs...)

	for pass := 0; pass < 2; pass++ {
		buckets := make(map[matchKey][]int, len(srcLeft))
		for _, i := range srcLeft {
			k := keyOf(src.Op(i), pass)
			buckets[k] = append(buckets[k], i)
		}
		var nextSrc, nextDst []int
		usedSrc := make(map[int]bool)
		for _, j := range dstLeft {
			k := keyOf(dst.Op(j), pass)
			if cands := buckets[k]; len(cands) > 0 {
				i := cands[0]
				buckets[k] = cands[1:]
				usedSrc[i] = true
				pair(i, j)
			} else {
				nextDst = append(nextDst, j)
			}
		}
		for _, i := range srcLeft {
			if !usedSrc[i] {
				nextSrc = append(nextSrc, i)
			}
		}
		srcLeft, dstLeft = nextSrc, nextDst
	}
	prof := est.Profile()
	si := 0
	for _, j := range dstLeft {
		for si < len(srcLeft) && !prof.Reshapeable(src.Op(srcLeft[si]), dst.Op(j)) {
			si++
		}
		if si == len(srcLeft) {
			break
		}
		pair(srcLeft[si], j)
		si++
	}
}

// checkGroupMatchesOracle fails t unless groupMapping and the map-based
// oracle agree exactly on src→dst.
func checkGroupMatchesOracle(t *testing.T, est *cost.Estimator, src, dst *model.Graph) {
	t.Helper()
	got, want := groupMapping(est, src, dst), groupMappingOracle(est, src, dst)
	if !slices.Equal(got.SrcToDst, want.SrcToDst) || !slices.Equal(got.Added, want.Added) {
		t.Fatalf("%s→%s: groupMapping = %v added %v, oracle = %v added %v",
			src.Name, dst.Name, got.SrcToDst, got.Added, want.SrcToDst, want.Added)
	}
}

// TestGroupMatchesMapOracle pins the pooled, hash-free group matcher to the
// map-based one it replaced: identical SrcToDst and Added on every ordered
// pair of every 9th Imgclsmob model (sorted by name) and of the crosscheck
// zoo, whose pairs exercise each matching pass.
func TestGroupMatchesMapOracle(t *testing.T) {
	est := exact()
	img := zoo.Imgclsmob()
	names := img.Names()
	sort.Strings(names)
	var models []*model.Graph
	for i := 0; i < len(names); i += 9 {
		models = append(models, img.MustGet(names[i]))
	}
	models = append(models, crosscheckZoo()...)
	for _, src := range models {
		for _, dst := range models {
			checkGroupMatchesOracle(t, est, src, dst)
		}
	}
	t.Logf("%d models, %d ordered pairs", len(models), len(models)*len(models))
}

// FuzzGroupMatchesOracle checks groupMapping against the map-based oracle on
// random graph pairs. The last corpus entry gives the destination far more
// distinct same-type shapes than the source (one source conv, 61 distinct
// destination conv shapes in 231 ops): the key table is sized for the source
// side, so a destination lookup that inserted would fill it and probe
// forever.
func FuzzGroupMatchesOracle(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(10))
	f.Add(int64(3), int64(3), uint8(30))
	f.Add(int64(11), int64(5), uint8(0))
	f.Add(int64(1), int64(2), uint8(0xff))
	est := exact()

	f.Fuzz(func(t *testing.T, seedA, seedB int64, size uint8) {
		src := randomGraph("src", seedA, 1+int(size)%8)
		dst := randomGraph("dst", seedB, 1+int(size))
		checkGroupMatchesOracle(t, est, src, dst)
		checkGroupMatchesOracle(t, est, dst, src)
	})
}
