package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/balancer"
	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// Ablation experiments for the design decisions called out in DESIGN.md.

// AblationPlannerQualityResult compares the group planner's plan cost to the
// Munkres optimum across many real model pairs.
type AblationPlannerQualityResult struct {
	Pairs     int
	MeanRatio float64 // group cost / optimal cost (≥ ~1)
	MaxRatio  float64
}

// AblationPlannerQuality samples pairs from Imgclsmob and measures the
// group planner's optimality gap.
func AblationPlannerQuality(o Options, pairs int) AblationPlannerQualityResult {
	o = o.withDefaults()
	if o.Quick && pairs > 10 {
		pairs = 10
	}
	est := cost.Exact(o.Profile)
	opt := planner.New(est, planner.AlgoHungarian)
	grp := planner.New(est, planner.AlgoGroup)
	rng := rand.New(rand.NewSource(o.Seed))
	names := imgZoo.Names()

	res := AblationPlannerQualityResult{Pairs: pairs}
	var sum float64
	n := 0
	for n < pairs {
		src := imgZoo.MustGet(names[rng.Intn(len(names))])
		dst := imgZoo.MustGet(names[rng.Intn(len(names))])
		po := opt.Plan(src, dst)
		pg := grp.Plan(src, dst)
		if po.EstCost == 0 {
			continue
		}
		r := float64(pg.EstCost) / float64(po.EstCost)
		sum += r
		if r > res.MaxRatio {
			res.MaxRatio = r
		}
		n++
	}
	res.MeanRatio = sum / float64(pairs)
	return res
}

// Render prints the planner-quality ablation.
func (r AblationPlannerQualityResult) Render() string {
	return fmt.Sprintf(`Ablation: group planner vs Munkres optimum over %d random Imgclsmob pairs
  mean cost ratio: %.3f
  max cost ratio:  %.3f
  (paper: "nearly optimal" — ratios close to 1)
`, r.Pairs, r.MeanRatio, r.MaxRatio)
}

// AblationSafeguardResult measures the worst-case penalty of disabling the
// §4.4 safeguard: executing the transformation plan even when loading from
// scratch is cheaper.
type AblationSafeguardResult struct {
	Pairs             int
	SafeguardFired    int
	MeanPenaltyNoSafe float64 // mean (plan cost / scratch cost) on fired pairs
	MaxPenaltyNoSafe  float64
}

// AblationSafeguard samples cross-family pairs (where the safeguard matters)
// and quantifies the cost of running without it.
func AblationSafeguard(o Options, pairs int) AblationSafeguardResult {
	o = o.withDefaults()
	if o.Quick && pairs > 10 {
		pairs = 10
	}
	pl := planner.New(cost.Exact(o.Profile), planner.AlgoGroup)
	rng := rand.New(rand.NewSource(o.Seed))
	cnn := imgZoo.Names()
	bert := bertZoo.Names()

	res := AblationSafeguardResult{Pairs: pairs}
	var sum float64
	for k := 0; k < pairs; k++ {
		// Mix CNN→BERT and BERT→CNN pairs: the regime where transformation
		// can lose to a fresh load.
		var src, dst *model.Graph
		if k%2 == 0 {
			src = imgZoo.MustGet(cnn[rng.Intn(len(cnn))])
			dst = bertZoo.MustGet(bert[rng.Intn(len(bert))])
		} else {
			src = bertZoo.MustGet(bert[rng.Intn(len(bert))])
			dst = imgZoo.MustGet(cnn[rng.Intn(len(cnn))])
		}
		p := pl.Plan(src, dst)
		if !p.LoadFromScratch {
			continue
		}
		res.SafeguardFired++
		penalty := float64(p.EstCost) / float64(p.ScratchCost)
		sum += penalty
		if penalty > res.MaxPenaltyNoSafe {
			res.MaxPenaltyNoSafe = penalty
		}
	}
	if res.SafeguardFired > 0 {
		res.MeanPenaltyNoSafe = sum / float64(res.SafeguardFired)
	}
	return res
}

// Render prints the safeguard ablation.
func (r AblationSafeguardResult) Render() string {
	return fmt.Sprintf(`Ablation: safeguard (worst-case fallback to fresh load) over %d cross-family pairs
  safeguard fired: %d/%d pairs
  without safeguard, transformation would cost %.2fx scratch on average (max %.2fx)
`, r.Pairs, r.SafeguardFired, r.Pairs, r.MeanPenaltyNoSafe, r.MaxPenaltyNoSafe)
}

// AblationPlanCacheResult compares online planning latency with and without
// the Module-3 plan cache.
type AblationPlanCacheResult struct {
	Lookups        int
	ColdMean       time.Duration // planning from scratch
	CachedMean     time.Duration // reading the cached plan
	SpeedupFactor  float64
	CacheHitsAfter int
}

// AblationPlanCache measures cache effectiveness over repeated lookups of a
// representative transformation set, timing the uncached and cached loops
// interleaved and keeping each one's fastest round.
func AblationPlanCache(o Options, lookups int) AblationPlanCacheResult {
	o = o.withDefaults()
	if o.Quick && lookups > 50 {
		lookups = 50
	}
	pl := planner.New(cost.Exact(o.Profile), planner.AlgoGroup)
	cache := planner.NewCache()
	pairs := [][2]*model.Graph{
		{imgZoo.MustGet("resnet50-imagenet"), imgZoo.MustGet("resnet101-imagenet")},
		{imgZoo.MustGet("vgg16-imagenet"), imgZoo.MustGet("vgg19-imagenet")},
		{bertZoo.MustGet("bert-base-sc"), bertZoo.MustGet("bert-base-qa")},
	}
	res := AblationPlanCacheResult{Lookups: lookups}

	for _, pr := range pairs {
		cache.GetOrPlan(pl, pr[0], pr[1]) // warm the cache
	}
	took := fastest(func() {
		for k := 0; k < lookups; k++ {
			pr := pairs[k%len(pairs)]
			_ = pl.Plan(pr[0], pr[1])
		}
	}, func() {
		for k := 0; k < lookups; k++ {
			pr := pairs[k%len(pairs)]
			cache.GetOrPlan(pl, pr[0], pr[1])
		}
	})
	res.ColdMean = took[0] / time.Duration(lookups)
	res.CachedMean = took[1] / time.Duration(lookups)
	if res.CachedMean > 0 {
		res.SpeedupFactor = float64(res.ColdMean) / float64(res.CachedMean)
	}
	res.CacheHitsAfter, _ = cache.Stats()
	return res
}

// Render prints the plan-cache ablation.
func (r AblationPlanCacheResult) Render() string {
	return fmt.Sprintf(`Ablation: plan cache (Module 3) over %d lookups
  planning per lookup (no cache): %v
  cached read per lookup:         %v
  speedup: %.0fx
`, r.Lookups, r.ColdMean, r.CachedMean, r.SpeedupFactor)
}

// AblationBalancerResult compares Optimus under K-medoids placement vs hash
// placement.
type AblationBalancerResult struct {
	HashMean, KMedoidsMean time.Duration
	Improvement            float64
}

// AblationBalancer runs the Fig 13 Optimus configuration under both
// placements.
func AblationBalancer(o Options, setup ClusterSetup) AblationBalancerResult {
	o = o.withDefaults()
	setup = setup.withDefaults(o.Quick)
	fns := DefaultFunctionSet(o.Quick)
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	tr := workload.MixedPoisson(names, setup.Horizon, o.Seed)
	run := func(placement map[string][]int) time.Duration {
		sim := simulate.New(simulate.Config{
			Policy:            policy.Optimus{},
			Nodes:             setup.Nodes,
			ContainersPerNode: setup.ContainersPerNode,
			Profile:           o.Profile,
			Placement:         placement,
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			panic(err)
		}
		return col.MeanLatency()
	}
	res := AblationBalancerResult{
		HashMean:     run(simulate.HashPlacement(names, setup.Nodes)),
		KMedoidsMean: run(balancer.TracePlacement(o.Profile, fns, tr, setup.Nodes, o.Seed)),
	}
	res.Improvement = 1 - float64(res.KMedoidsMean)/float64(res.HashMean)
	return res
}

// Render prints the balancer ablation.
func (r AblationBalancerResult) Render() string {
	return fmt.Sprintf(`Ablation: model-sharing-aware load balancer (§5.1) vs hash placement (Optimus policy)
  hash placement mean latency:      %v
  k-medoids placement mean latency: %v
  improvement: %s
`, r.HashMean, r.KMedoidsMean, pct(r.Improvement))
}

// AblationIdleThresholdResult sweeps the §4.2 idle threshold.
type AblationIdleThresholdResult struct {
	Thresholds []time.Duration
	Means      []time.Duration
	Transforms []float64
}

// AblationIdleThreshold sweeps the idle-identification threshold and
// reports Optimus' mean latency and transformation share at each setting.
func AblationIdleThreshold(o Options, setup ClusterSetup, thresholds []time.Duration) AblationIdleThresholdResult {
	o = o.withDefaults()
	setup = setup.withDefaults(o.Quick)
	if len(thresholds) == 0 {
		thresholds = []time.Duration{
			15 * time.Second, 30 * time.Second, time.Minute,
			2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
		}
	}
	fns := DefaultFunctionSet(o.Quick)
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	tr := workload.MixedPoisson(names, setup.Horizon, o.Seed)
	res := AblationIdleThresholdResult{Thresholds: thresholds}
	for _, th := range thresholds {
		sim := simulate.New(simulate.Config{
			Policy:            policy.Optimus{},
			Nodes:             setup.Nodes,
			ContainersPerNode: setup.ContainersPerNode,
			Profile:           o.Profile,
			IdleThreshold:     th,
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			panic(err)
		}
		res.Means = append(res.Means, col.MeanLatency())
		res.Transforms = append(res.Transforms, col.KindFractions()[metrics.StartTransform])
	}
	return res
}

// Render prints the idle-threshold sweep.
func (r AblationIdleThresholdResult) Render() string {
	rows := make([][]string, 0, len(r.Thresholds))
	for i, th := range r.Thresholds {
		rows = append(rows, []string{th.String(), ms(r.Means[i]), pct(r.Transforms[i])})
	}
	return "Ablation: idle-container identification threshold sweep (§4.2, Optimus policy)\n" +
		table([]string{"threshold", "mean latency(ms)", "transform share"}, rows)
}

// AblationOnlineProfilingResult evaluates §6's online-profiling extension:
// the system starts with a badly miscalibrated meta-operator profile and
// either keeps it (the paper's offline-only profiling) or refines it from
// observed execution times.
type AblationOnlineProfilingResult struct {
	EstimatorErr            float64
	OfflineMean, OnlineMean time.Duration
	// Miscalibration is the mean absolute relative error of the estimator's
	// per-op-type factors (0 = calibrated).
	MiscalStart, MiscalOffline, MiscalOnline float64
	Observations                             int
}

// AblationOnlineProfiling runs Optimus with ±50 % profiling error, with and
// without the online refinement loop.
func AblationOnlineProfiling(o Options, setup ClusterSetup) AblationOnlineProfilingResult {
	o = o.withDefaults()
	setup = setup.withDefaults(o.Quick)
	fns := DefaultFunctionSet(o.Quick)
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	tr := workload.MixedPoisson(names, setup.Horizon, o.Seed)
	const relErr = 0.5

	res := AblationOnlineProfilingResult{EstimatorErr: relErr}
	res.MiscalStart = cost.NewEstimator(o.Profile, relErr, o.Seed).Miscalibration()

	run := func(alpha float64) (time.Duration, float64, int) {
		sim := simulate.New(simulate.Config{
			Policy:            policy.Optimus{},
			Nodes:             setup.Nodes,
			ContainersPerNode: setup.ContainersPerNode,
			Profile:           o.Profile,
			EstimatorErr:      relErr,
			Seed:              o.Seed,
			OnlineProfiling:   alpha,
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			panic(err)
		}
		return col.MeanLatency(), sim.Estimator().Miscalibration(), sim.Estimator().Observations()
	}
	var obs int
	res.OfflineMean, res.MiscalOffline, _ = run(0)
	res.OnlineMean, res.MiscalOnline, obs = run(0.2)
	res.Observations = obs
	return res
}

// Render prints the online-profiling ablation.
func (r AblationOnlineProfilingResult) Render() string {
	return fmt.Sprintf(`Ablation: online profiling (§6 Future Work) under ±%.0f%% initial profiling error
  miscalibration at start:            %.3f
  after run, offline profiling only:  %.3f (unchanged, plans built on stale estimates)
  after run, online profiling (α=.2): %.3f over %d observations
  mean latency: offline %v, online %v
`, 100*r.EstimatorErr, r.MiscalStart, r.MiscalOffline, r.MiscalOnline, r.Observations,
		r.OfflineMean, r.OnlineMean)
}

// AblationAllocationResult evaluates §6 Limitation 1 (fine-grained resource
// allocation): the same Optimus cluster with slot-based, homogeneous-memory
// and fine-grained-memory container allocation.
type AblationAllocationResult struct {
	NodeMemoryMB, HomogeneousMB          int
	SlotsMean, HomogeneousMean, FineMean time.Duration
	SlotsCold, HomogeneousCold, FineCold float64
}

// AblationAllocation runs the comparison on a mixed-size model population.
func AblationAllocation(o Options, setup ClusterSetup) AblationAllocationResult {
	o = o.withDefaults()
	setup = setup.withDefaults(o.Quick)
	fns := DefaultFunctionSet(o.Quick)
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	tr := workload.MixedPoisson(names, setup.Horizon, o.Seed)

	res := AblationAllocationResult{NodeMemoryMB: 16384, HomogeneousMB: 4096}
	run := func(nodeMB, containerMB, slots int) (time.Duration, float64) {
		sim := simulate.New(simulate.Config{
			Policy:            policy.Optimus{},
			Nodes:             setup.Nodes,
			ContainersPerNode: slots,
			Profile:           o.Profile,
			NodeMemoryMB:      nodeMB,
			ContainerMemoryMB: containerMB,
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			panic(err)
		}
		return col.MeanLatency(), col.KindFractions()[metrics.StartCold]
	}
	// Slot mode: node memory / homogeneous grant = 4 slots, no memory model.
	res.SlotsMean, res.SlotsCold = run(0, 0, res.NodeMemoryMB/res.HomogeneousMB)
	// Homogeneous memory: same effective capacity, expressed in memory.
	res.HomogeneousMean, res.HomogeneousCold = run(res.NodeMemoryMB, res.HomogeneousMB, 64)
	// Fine-grained: containers sized to their models pack more per node.
	res.FineMean, res.FineCold = run(res.NodeMemoryMB, 0, 64)
	return res
}

// Render prints the allocation ablation.
func (r AblationAllocationResult) Render() string {
	return fmt.Sprintf(`Ablation: container resource allocation (§6 Limitation 1), %d MB nodes, Optimus policy
  slot-based (%d slots/node):     mean %-14v cold %s
  homogeneous %d MB containers:  mean %-14v cold %s
  fine-grained (model-sized):     mean %-14v cold %s
`, r.NodeMemoryMB, r.NodeMemoryMB/r.HomogeneousMB,
		r.SlotsMean, pct(r.SlotsCold),
		r.HomogeneousMB, r.HomogeneousMean, pct(r.HomogeneousCold),
		r.FineMean, pct(r.FineCold))
}
