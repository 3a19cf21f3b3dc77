package simulate

import (
	"testing"
	"time"

	"repro/internal/zoo"
)

// benchSim builds an in-package simulator mid-replay: warm containers spread
// across the cluster so routing exercises the warm/repurpose/capacity tiers.
func benchSim(b testing.TB, nodes, containers int, scan bool) (*Simulator, []*fnRuntime) {
	b.Helper()
	reg := zoo.Imgclsmob()
	names := []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
		"vgg16-imagenet", "vgg19-imagenet", "densenet121-imagenet",
	}
	fns := make([]*Function, len(names))
	for i, n := range names {
		g, err := reg.Get(n)
		if err != nil {
			b.Fatal(err)
		}
		fns[i] = &Function{Name: n, Model: g}
	}
	// Policy stays nil: the routing paths under test never consult it.
	s := New(Config{Nodes: nodes, ContainersPerNode: containers}, fns)
	if !scan {
		s.enableIndex()
	}
	// Populate: a mix of idle-warm, idle-mature and busy containers.
	now := 30 * time.Minute
	s.clock = now
	for ni, n := range s.nodes {
		for ci := 0; ci < containers; ci++ {
			fn := fns[(ni+ci)%len(fns)]
			c := n.newContainer(fn, s.env.GrantFor(fn), now-5*time.Minute)
			switch ci % 3 {
			case 0: // busy
				c.BusyUntil = now + time.Minute
				c.LastDone = now - 2*time.Minute
				if n.idx != nil {
					n.idx.startService(c, s.ordFor(fn))
				}
			case 1: // mature idle (repurposable)
				c.LastDone = now - 3*time.Minute
			default: // young idle
				c.LastDone = now - 10*time.Second
			}
		}
		if n.idx != nil {
			n.idx.expire(now)
		}
	}
	frs := make([]*fnRuntime, len(fns))
	for i, f := range fns {
		frs[i] = s.rt(f)
	}
	return s, frs
}

// BenchmarkRoute compares the scanning router against the indexed
// router on a warm mid-replay cluster. The indexed path must report
// 0 allocs/op.
func BenchmarkRoute(b *testing.B) {
	for _, bc := range []struct {
		name              string
		nodes, containers int
	}{
		{"small-4x8", 4, 8},
		{"large-32x16", 32, 16},
	} {
		b.Run(bc.name+"/scan", func(b *testing.B) {
			s, frs := benchSim(b, bc.nodes, bc.containers, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkNode = s.route(frs[i%len(frs)].fn)
			}
		})
		b.Run(bc.name+"/indexed", func(b *testing.B) {
			s, frs := benchSim(b, bc.nodes, bc.containers, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkNode = s.routeIndexed(frs[i%len(frs)])
			}
		})
	}
}

var sinkNode *Node

// TestIndexedRouteFasterThanScan checks, in one process on BenchmarkRoute's
// large-32x16 fixture, that the indexed router beats the scanning router it
// replaced for trace replay. Each router's time is the fastest of several
// rounds, so a scheduling hiccup in one round cannot flip the comparison.
func TestIndexedRouteFasterThanScan(t *testing.T) {
	scanSim, scanFrs := benchSim(t, 32, 16, true)
	idxSim, idxFrs := benchSim(t, 32, 16, false)
	fastest := func(route func(i int)) time.Duration {
		const rounds, calls = 5, 5000
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				route(i)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	scan := fastest(func(i int) { sinkNode = scanSim.route(scanFrs[i%len(scanFrs)].fn) })
	indexed := fastest(func(i int) { sinkNode = idxSim.routeIndexed(idxFrs[i%len(idxFrs)]) })
	t.Logf("5000 routes: scan %v, indexed %v (%.1fx)", scan, indexed, float64(scan)/float64(indexed))
	if indexed >= scan {
		t.Errorf("indexed routing (%v) is not faster than scanning (%v)", indexed, scan)
	}
}

// TestRouteWarmPathAllocs pins the satellite requirement: the indexed warm
// routing path allocates nothing.
func TestRouteWarmPathAllocs(t *testing.T) {
	s, frs := benchSim(t, 8, 8, false)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		sinkNode = s.routeIndexed(frs[i%len(frs)])
		i++
	}); avg != 0 {
		t.Errorf("indexed route allocates %.1f/op, want 0", avg)
	}
}

// TestHasIdleOtherNoAllocs pins the scan router's fixed hot-spot: the idle-
// other predicate no longer builds a slice per candidate node.
func TestHasIdleOtherNoAllocs(t *testing.T) {
	s, frs := benchSim(t, 4, 8, true)
	n := s.nodes[0]
	fn := frs[0].fn
	if avg := testing.AllocsPerRun(200, func() {
		_ = n.HasIdleOther(fn, s.clock, s.env.IdleThreshold)
	}); avg != 0 {
		t.Errorf("HasIdleOther allocates %.1f/op, want 0", avg)
	}
}
