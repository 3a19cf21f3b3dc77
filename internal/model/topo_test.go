package model_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/zoo"
)

// topoSortSortedFrontier is the sorted-frontier Kahn's algorithm TopoSort's
// min-heap replaced: it re-sorts the whole ready set before every pop. It is
// kept as the oracle for TopoSort's order; ok is false on a cycle.
func topoSortSortedFrontier(g *model.Graph) (order []int, ok bool) {
	n := g.NumOps()
	succ := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range g.Edges() {
		succ[e.From] = append(succ[e.From], e.To)
		indeg[e.To]++
	}
	var frontier []int
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			frontier = append(frontier, id)
		}
	}
	for len(frontier) > 0 {
		sort.Ints(frontier)
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, to := range succ[id] {
			indeg[to]--
			if indeg[to] == 0 {
				frontier = append(frontier, to)
			}
		}
	}
	return order, len(order) == n
}

// shuffledDAG returns an n-op DAG whose edges follow a random permutation of
// the IDs, so its topological order is far from ID order and the ready set
// holds many IDs at once.
func shuffledDAG(seed int64, n int) *model.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := model.NewGraph("dag", "test")
	for i := 0; i < n; i++ {
		g.AddOp(model.Operation{Type: model.OpReLU})
	}
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(n) < 3 {
				g.Connect(perm[a], perm[b])
			}
		}
	}
	return g
}

// TestTopoSortMatchesSortedFrontier checks the min-heap TopoSort against the
// sorted-frontier algorithm on every zoo graph and on random DAGs, and that
// a cycle still yields the same error.
func TestTopoSortMatchesSortedFrontier(t *testing.T) {
	var graphs []*model.Graph
	for _, reg := range []*zoo.Registry{zoo.Imgclsmob(), zoo.BERTZoo(), zoo.GPTZoo(), zoo.RNNZoo()} {
		for _, name := range reg.Names() {
			graphs = append(graphs, reg.MustGet(name))
		}
	}
	for i := 0; i < 8; i++ {
		g, err := zoo.NASBenchModel(i*1931, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for seed := int64(0); seed < 200; seed++ {
		graphs = append(graphs, shuffledDAG(seed, 1+int(seed)%60))
	}
	for _, g := range graphs {
		got, err := g.TopoSort()
		want, ok := topoSortSortedFrontier(g)
		if err != nil || !ok {
			t.Fatalf("%s: TopoSort err %v, oracle ok %v", g.Name, err, ok)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: TopoSort = %v, sorted frontier = %v", g.Name, got, want)
		}
	}

	cyc := shuffledDAG(7, 12)
	e := cyc.Edges()[0]
	cyc.Connect(e.To, e.From)
	_, err := cyc.TopoSort()
	if _, ok := topoSortSortedFrontier(cyc); ok || err == nil {
		t.Fatalf("cycle not detected: TopoSort err %v, oracle ok %v", err, ok)
	}
	if want := `model: graph "dag" contains a cycle`; err.Error() != want {
		t.Errorf("cycle error %q, want %q", err, want)
	}
}
