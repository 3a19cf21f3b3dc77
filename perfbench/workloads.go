package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/simulate"
	"repro/internal/workload"
	"repro/internal/zoo"
)

// spec is one workload's inputs: a model catalog, the cluster it runs on and
// a seeded trace generator. Every call to catalog builds fresh graphs from
// new zoo registries, so each setup pays the full catalog-build cost.
type spec struct {
	name string
	// kind is "replay" (event-loop replay) or "serve" (HTTP gateway).
	kind string
	// nodes × containersPerNode is the simulated cluster; placement maps
	// function names to candidate nodes.
	nodes, containersPerNode int
	placement                func(names []string) map[string][]int
	catalog                  func() []*simulate.Function
	trace                    func(names []string, seed int64) *workload.Trace
	// requests is the target trace size; the generated count is close to it.
	requests int
	horizon  time.Duration
}

// workloadNames lists the workloads in the order the benchmark defines them.
var workloadNames = []string{"replay-scale", "replay-catalog", "serve-trace"}

// specFor returns the named workload's spec; quick shrinks it for tests.
func specFor(name string, quick bool) (*spec, error) {
	switch name {
	case "replay-scale":
		return scaleSpec(quick), nil
	case "replay-catalog":
		return catalogSpec(quick), nil
	case "serve-trace":
		return serveSpec(quick), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// The §8.1 function set: 20 Imgclsmob CNNs and 6 BERT variants. The quick
// catalog is its first 8 CNNs and first 2 BERTs.
var (
	section81CNN = []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "resnet101-imagenet",
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet",
		"densenet121-imagenet", "densenet169-imagenet",
		"mobilenet-w1-imagenet", "mobilenet-w0.75-imagenet", "mobilenetv2-w1-imagenet",
		"shufflenetv2-w1-imagenet", "squeezenet-v1.0-imagenet",
		"xception-imagenet", "inceptionv3-imagenet",
		"resnet18-cifar10", "resnet50-cifar10", "vgg16-cifar10", "densenet121-cifar10",
	}
	section81BERT = []string{
		"bert-tiny", "bert-mini", "bert-small",
		"bert-base-uncased", "bert-base-sc", "bert-base-qa",
	}
)

// section81 builds the §8.1 function set (the quick catalog when quick).
func section81(quick bool) []*simulate.Function {
	cnn, bert := section81CNN, section81BERT
	if quick {
		cnn, bert = cnn[:8], bert[:2]
	}
	img, bz := zoo.Imgclsmob(), zoo.BERTZoo()
	fns := make([]*simulate.Function, 0, len(cnn)+len(bert))
	for _, n := range cnn {
		fns = append(fns, &simulate.Function{Name: n, Model: img.MustGet(n)})
	}
	for _, n := range bert {
		fns = append(fns, &simulate.Function{Name: n, Model: bz.MustGet(n)})
	}
	return fns
}

// scaleSpec is the BENCH_sim_scale fixture: functions cycle the 10-model
// quick catalog on disjoint groups of 8 nodes × 32 containers, with skewed
// Poisson rates tuned to land near the target trace size over 30 minutes.
func scaleSpec(quick bool) *spec {
	const nodesPerGroup, containersPerNode, fnsPerGroup = 8, 32, 128
	groups, requests := 8, 1_000_000
	if quick {
		groups, requests = 2, 20_000
	}
	nfns := groups * fnsPerGroup
	horizon := 30 * time.Minute
	return &spec{
		name: "replay-scale", kind: "replay",
		nodes: groups * nodesPerGroup, containersPerNode: containersPerNode,
		requests: requests, horizon: horizon,
		placement: func(names []string) map[string][]int {
			p := make(map[string][]int, len(names))
			for i, name := range names {
				g := i % groups
				nodes := make([]int, nodesPerGroup)
				for j := range nodes {
					nodes[j] = g*nodesPerGroup + j
				}
				p[name] = nodes
			}
			return p
		},
		catalog: func() []*simulate.Function {
			base := section81(true)
			fns := make([]*simulate.Function, nfns)
			for i := range fns {
				fns[i] = &simulate.Function{Name: fmt.Sprintf("fn-%04d", i), Model: base[i%len(base)].Model}
			}
			return fns
		},
		trace: func(names []string, seed int64) *workload.Trace {
			perFn := float64(requests) / horizon.Seconds() / float64(len(names))
			rates := make(map[string]float64, len(names))
			for i, name := range names {
				// Heavy head, long tail, so warm reuse, repurposing and
				// cold starts all occur.
				rates[name] = perFn * (0.25 + 1.5*float64(i%8)/7)
			}
			return workload.PoissonRates(rates, horizon, seed)
		},
	}
}

// catalogSpec replays a day of skewed Poisson traffic over 128 distinct
// Imgclsmob models on 4 nodes × 8 containers with hash placement. Most
// starts repurpose a container of another model, so planning dominates.
func catalogSpec(quick bool) *spec {
	models, requests := 128, 37_000
	if quick {
		models, requests = 16, 2_000
	}
	horizon := 24 * time.Hour
	return &spec{
		name: "replay-catalog", kind: "replay",
		nodes: 4, containersPerNode: 8,
		requests: requests, horizon: horizon,
		placement: func(names []string) map[string][]int { return simulate.HashPlacement(names, 4) },
		catalog: func() []*simulate.Function {
			img := zoo.Imgclsmob()
			all := img.Names()
			sort.Strings(all)
			fns := make([]*simulate.Function, 0, models)
			for i := 0; i < len(all) && len(fns) < models; i += 3 {
				fns = append(fns, &simulate.Function{Name: all[i], Model: img.MustGet(all[i])})
			}
			return fns
		},
		trace: func(names []string, seed int64) *workload.Trace {
			return workload.PoissonRates(zipfRates(names, requests, horizon), horizon, seed)
		},
	}
}

// serveSpec serves two weeks of skewed Poisson traffic over the §8.1 set
// through the gateway, on 4 nodes × 8 containers with hash placement.
func serveSpec(quick bool) *spec {
	requests := 179_000
	if quick {
		requests = 3_000
	}
	horizon := 14 * 24 * time.Hour
	return &spec{
		name: "serve-trace", kind: "serve",
		nodes: 4, containersPerNode: 8,
		requests: requests, horizon: horizon,
		placement: func(names []string) map[string][]int { return simulate.HashPlacement(names, 4) },
		catalog:   func() []*simulate.Function { return section81(quick) },
		trace: func(names []string, seed int64) *workload.Trace {
			return workload.PoissonRates(zipfRates(names, requests, horizon), horizon, seed)
		},
	}
}

// zipfRates gives the i-th function a Poisson rate proportional to 1/(i+1),
// scaled so the trace holds about `requests` arrivals over the horizon: a
// few hot functions and a long tail of rarely invoked ones, the popularity
// skew of production serverless traces. The rate of each function is fixed
// by its position, so the seed changes arrivals but not the load's shape.
func zipfRates(names []string, requests int, horizon time.Duration) map[string]float64 {
	h := 0.0
	for i := range names {
		h += 1 / float64(i+1)
	}
	total := float64(requests) / horizon.Seconds()
	rates := make(map[string]float64, len(names))
	for i, name := range names {
		rates[name] = total / h / float64(i+1)
	}
	return rates
}

// functionNames returns the functions' names in catalog order.
func functionNames(fns []*simulate.Function) []string {
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	return names
}

// clusterConfig is the simulated cluster for a workload and seed.
func (sp *spec) clusterConfig(names []string, pol simulate.Policy, seed int64) simulate.Config {
	return simulate.Config{
		Nodes:             sp.nodes,
		ContainersPerNode: sp.containersPerNode,
		Policy:            pol,
		Seed:              seed,
		Placement:         sp.placement(names),
	}
}

// params is the workload's shape for the environment block.
func (sp *spec) params() map[string]any {
	return map[string]any{
		"kind":                sp.kind,
		"target_requests":     sp.requests,
		"horizon_s":           sp.horizon.Seconds(),
		"nodes":               sp.nodes,
		"containers_per_node": sp.containersPerNode,
	}
}
