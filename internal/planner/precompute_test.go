package planner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/zoo"
)

// propZoo builds n seeded random graphs for the parallel-vs-serial property
// tests.
func propZoo(n, maxOps int) []*model.Graph {
	out := make([]*model.Graph, n)
	for i := range out {
		out[i] = randomGraph(fmt.Sprintf("m%d", i), int64(100+i), maxOps)
	}
	return out
}

// tinyZoo builds graphs small enough for the brute-force oracle: every
// ordered pair's cost matrix (src ops + dst ops) stays within
// bruteForceLimit.
func tinyZoo() []*model.Graph {
	return []*model.Graph{
		chain("t0", convOp("c1", 3, 8, 8), reluOp("r1", 8)),
		chain("t1", convOp("c1", 5, 8, 8), reluOp("r1", 8), convOp("c2", 3, 8, 8)),
		chain("t2", convOp("c1", 1, 8, 16), reluOp("r1", 16)),
		chain("t3", reluOp("r1", 8), convOp("c1", 3, 8, 8), reluOp("r2", 8)),
	}
}

// catalogZoo is the quick §8.1 function mix (the experiments package's
// DefaultFunctionSet with quick set): eight ImageNet CNNs and two BERTs.
func catalogZoo() []*model.Graph {
	img, bert := zoo.Imgclsmob(), zoo.BERTZoo()
	var out []*model.Graph
	for _, n := range []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "resnet101-imagenet",
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet", "densenet121-imagenet",
	} {
		out = append(out, img.MustGet(n))
	}
	return append(out, bert.MustGet("bert-tiny"), bert.MustGet("bert-mini"))
}

// TestParallelPrecomputeMatchesSerial is the determinism property test: the
// parallel pipeline must produce byte-identical plans (JSON covers step
// order, costs and the safeguard decision) to direct serial planning, for
// every ordered pair and every planning algorithm, planning each pair
// exactly once. On the §8.1 catalog, with at least four cores, the parallel
// warm-up's fastest of three interleaved rounds must also not be slower than
// a one-worker one's.
func TestParallelPrecomputeMatchesSerial(t *testing.T) {
	cases := []struct {
		name   string
		algo   Algorithm
		models []*model.Graph
		timed  bool
	}{
		{"group", AlgoGroup, propZoo(8, 10), false},
		{"hungarian", AlgoHungarian, propZoo(8, 10), false},
		{"brute", AlgoBrute, tinyZoo(), false}, // brute needs tiny matrices
		{"catalog", AlgoGroup, catalogZoo(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := New(exact(), tc.algo)
			// A timed case runs the two pipelines interleaved several times
			// and compares their fastest rounds, so one GC pause or
			// preemption cannot decide the bar.
			rounds := 1
			if tc.timed {
				rounds = 3
			}
			var parallel *Cache
			var serialTook, parallelTook time.Duration
			for r := 0; r < rounds; r++ {
				t0 := time.Now()
				NewPrecomputer(pl, NewCache(), 1).PrecomputeAll(tc.models)
				if d := time.Since(t0); r == 0 || d < serialTook {
					serialTook = d
				}
				parallel = NewCache()
				t1 := time.Now()
				NewPrecomputer(pl, parallel, 8).PrecomputeAll(tc.models)
				if d := time.Since(t1); r == 0 || d < parallelTook {
					parallelTook = d
				}
			}

			if pairs := len(tc.models) * (len(tc.models) - 1); parallel.Counters().Planned != pairs {
				t.Errorf("parallel precompute planned %d of %d pairs (duplicates or losses)",
					parallel.Counters().Planned, pairs)
			}
			// The speed bar only holds where there is parallel hardware: on
			// fewer cores the pool degenerates to serial plus overhead.
			if tc.timed && runtime.NumCPU() >= 4 && parallelTook > serialTook {
				t.Errorf("parallel precompute slower than serial on %d cores: %v vs %v",
					runtime.NumCPU(), parallelTook, serialTook)
			}
			for i, src := range tc.models {
				for j, dst := range tc.models {
					if i == j {
						continue
					}
					got, ok := parallel.Get(src, dst)
					if !ok {
						t.Fatalf("%s→%s missing from parallel cache", src.Name, dst.Name)
					}
					want := pl.Plan(src, dst)
					jw, errW := json.Marshal(want)
					jg, errG := json.Marshal(got)
					if errW != nil || errG != nil {
						t.Fatalf("marshal: %v / %v", errW, errG)
					}
					if string(jw) != string(jg) {
						t.Errorf("%s→%s: parallel plan differs from serial\nserial:   %s\nparallel: %s",
							src.Name, dst.Name, jw, jg)
					}
				}
			}
		})
	}
}

// TestGetOrPlanSingleflight: a burst of concurrent GetOrPlan calls for one
// pair computes the plan exactly once; everyone gets the same plan object and
// every call is accounted as planned, deduped or a cache hit.
func TestGetOrPlanSingleflight(t *testing.T) {
	img := zoo.Imgclsmob()
	src := img.MustGet("resnet50-imagenet")
	dst := img.MustGet("resnet101-imagenet")
	c := NewCache()
	pl := New(exact(), AlgoGroup)

	const callers = 16
	plans := make([]any, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i] = c.GetOrPlan(pl, src, dst)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < callers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan object", i)
		}
	}
	ct := c.Counters()
	if ct.Planned != 1 {
		t.Errorf("planned %d times, want exactly 1 (singleflight)", ct.Planned)
	}
	if ct.Planned+ct.Deduped+ct.Hits != callers {
		t.Errorf("planned %d + deduped %d + hits %d != %d callers",
			ct.Planned, ct.Deduped, ct.Hits, callers)
	}
	if c.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", c.Len())
	}
}

// TestCacheLRUEviction: a bounded cache evicts the least recently used plan,
// counts the eviction, and keeps freshly used entries.
func TestCacheLRUEviction(t *testing.T) {
	base := chain("base", convOp("c1", 3, 8, 8))
	dsts := []*model.Graph{
		chain("d0", reluOp("r", 8)),
		chain("d1", reluOp("r", 16)),
		chain("d2", reluOp("r", 32)),
	}
	c := NewCacheBounded(2)
	pl := New(exact(), AlgoGroup)

	p0 := c.GetOrPlan(pl, base, dsts[0])
	_ = c.GetOrPlan(pl, base, dsts[1])
	// Freshen (base, d0) so (base, d1) becomes the LRU entry.
	if p, ok := c.Get(base, dsts[0]); !ok || p != p0 {
		t.Fatal("freshening lookup missed")
	}
	_ = c.GetOrPlan(pl, base, dsts[2]) // exceeds the bound → evicts (base, d1)

	if c.Len() != 2 {
		t.Fatalf("cache Len = %d, want 2 (bounded)", c.Len())
	}
	ct := c.Counters()
	if ct.Evictions != 1 || ct.Size != 2 || ct.Limit != 2 {
		t.Errorf("counters = %+v, want 1 eviction at size 2/2", ct)
	}
	if _, ok := c.Get(base, dsts[0]); !ok {
		t.Error("recently used pair was evicted")
	}
	if _, ok := c.Get(base, dsts[1]); ok {
		t.Error("LRU pair survived past the bound")
	}
	if _, ok := c.Get(base, dsts[2]); !ok {
		t.Error("newest pair missing")
	}
}

// TestPrecomputerCounters: EnqueueAll skips the self pair, Quiesce drains the
// backlog, the pipeline plans each unique pair exactly once (no duplicate
// work), and re-enqueueing already-planned pairs does not replan them.
func TestPrecomputerCounters(t *testing.T) {
	models := propZoo(5, 8)
	pl := New(exact(), AlgoGroup)
	c := NewCache()
	p := NewPrecomputer(pl, c, 4)

	p.EnqueueAll(models[0], models) // includes models[0] itself → skipped
	p.Quiesce()
	if !p.Ready() {
		t.Fatal("pipeline not ready after Quiesce")
	}

	want := 2 * (len(models) - 1)
	st := p.Stats()
	if st.Enqueued != want || st.Completed != want || st.Pending != 0 {
		t.Errorf("enqueued/completed/pending = %d/%d/%d, want %d/%d/0",
			st.Enqueued, st.Completed, st.Pending, want, want)
	}
	if got := c.Counters().Planned; got != want || got != c.Len() {
		t.Errorf("planned %d plans into a cache of %d, want %d each (no duplicates)",
			got, c.Len(), want)
	}

	// Re-enqueueing the same pairs is a cheap cache probe, not a replan.
	p.EnqueueAll(models[0], models)
	p.Quiesce()
	if got := c.Counters().Planned; got != want {
		t.Errorf("re-enqueue replanned: planned = %d, want still %d", got, want)
	}
}
