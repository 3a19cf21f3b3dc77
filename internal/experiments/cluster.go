package experiments

import (
	"fmt"
	"time"

	"repro/internal/balancer"
	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// DefaultFunctionSet returns the serverless ML inference functions used by
// the end-to-end cluster experiments: a diverse slice of the Imgclsmob zoo
// plus the BERT variants, as in §8.1.
func DefaultFunctionSet(quick bool) []*simulate.Function {
	cnn := []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "resnet101-imagenet",
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet",
		"densenet121-imagenet", "densenet169-imagenet",
		"mobilenet-w1-imagenet", "mobilenet-w0.75-imagenet", "mobilenetv2-w1-imagenet",
		"shufflenetv2-w1-imagenet", "squeezenet-v1.0-imagenet",
		"xception-imagenet", "inceptionv3-imagenet",
		"resnet18-cifar10", "resnet50-cifar10", "vgg16-cifar10", "densenet121-cifar10",
	}
	bert := []string{
		"bert-tiny", "bert-mini", "bert-small",
		"bert-base-uncased", "bert-base-sc", "bert-base-qa",
	}
	if quick {
		cnn = cnn[:8]
		bert = bert[:2]
	}
	fns := make([]*simulate.Function, 0, len(cnn)+len(bert))
	for _, n := range cnn {
		fns = append(fns, &simulate.Function{Name: n, Model: imgZoo.MustGet(n)})
	}
	for _, n := range bert {
		fns = append(fns, &simulate.Function{Name: n, Model: bertZoo.MustGet(n)})
	}
	return fns
}

// ClusterSetup describes a Fig 13/16-style end-to-end run.
type ClusterSetup struct {
	Nodes             int
	ContainersPerNode int
	Horizon           time.Duration
}

func (c ClusterSetup) withDefaults(quick bool) ClusterSetup {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.ContainersPerNode <= 0 {
		c.ContainersPerNode = 4
	}
	if c.Horizon <= 0 {
		c.Horizon = 24 * time.Hour
	}
	if quick && c.Horizon > 4*time.Hour {
		c.Horizon = 4 * time.Hour
	}
	return c
}

// Fig13Cell is one (policy, workload) measurement.
type Fig13Cell struct {
	Policy   string
	Workload string
	Requests int
	Mean     time.Duration
	P50, P99 time.Duration
	Kinds    map[metrics.StartKind]float64
}

// Fig13Result reproduces Figure 13 (and 16 under a GPU profile): average
// service time of the four systems under the Poisson and Azure workloads.
// The per-cell start-kind fractions double as Figure 14.
type Fig13Result struct {
	Profile string
	Cells   []Fig13Cell
	// Reductions maps workload → Optimus' latency reduction vs OpenWhisk.
	Reductions map[string]float64
}

// Fig13 runs the end-to-end comparison. Optimus uses its model-sharing-aware
// K-medoids placement (§5.1); the baselines use the hash placement of
// traditional platforms.
func Fig13(o Options, setup ClusterSetup) Fig13Result {
	o = o.withDefaults()
	setup = setup.withDefaults(o.Quick)
	fns := DefaultFunctionSet(o.Quick)
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}

	workloads := map[string]*workload.Trace{
		"poisson": workload.MixedPoisson(names, setup.Horizon, o.Seed),
		"azure":   workload.AzureLike(names, setup.Horizon, o.Seed+1),
	}

	res := Fig13Result{Profile: o.Profile.Name, Reductions: map[string]float64{}}
	for _, wlName := range []string{"poisson", "azure"} {
		tr := workloads[wlName]
		base := map[string]time.Duration{}
		for _, pol := range policy.All() {
			placement := simulate.HashPlacement(names, setup.Nodes)
			if pol.Name() == "optimus" {
				placement = balancer.TracePlacement(o.Profile, fns, tr, setup.Nodes, o.Seed)
			}
			sim := simulate.New(simulate.Config{
				Policy:            pol,
				Nodes:             setup.Nodes,
				ContainersPerNode: setup.ContainersPerNode,
				Profile:           o.Profile,
				Placement:         placement,
				Seed:              o.Seed,
			}, fns)
			col, err := sim.Run(tr)
			if err != nil {
				panic(err)
			}
			res.Cells = append(res.Cells, Fig13Cell{
				Policy: pol.Name(), Workload: wlName,
				Requests: col.Len(),
				Mean:     col.MeanLatency(),
				P50:      col.Percentile(50),
				P99:      col.Percentile(99),
				Kinds:    col.KindFractions(),
			})
			base[pol.Name()] = col.MeanLatency()
		}
		if ow := base["openwhisk"]; ow > 0 {
			res.Reductions[wlName] = 1 - float64(base["optimus"])/float64(ow)
		}
	}
	return res
}

// Render prints the Fig 13 table.
func (r Fig13Result) Render() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Workload, c.Policy, fmt.Sprint(c.Requests),
			ms(c.Mean), ms(c.P50), ms(c.P99),
		})
	}
	out := fmt.Sprintf("Figure 13 (%s profile): average service time of serverless ML inference requests\n", r.Profile) +
		table([]string{"workload", "system", "requests", "mean(ms)", "p50(ms)", "p99(ms)"}, rows)
	for _, wl := range []string{"poisson", "azure"} {
		if red, ok := r.Reductions[wl]; ok {
			out += fmt.Sprintf("optimus reduction vs openwhisk (%s): %s (paper: 24.00%%~47.56%%)\n", wl, pct(red))
		}
	}
	return out
}

// RenderFig14 prints the same runs' start-kind percentages (Figure 14).
func (r Fig13Result) RenderFig14() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Workload, c.Policy,
			pct(c.Kinds[metrics.StartCold]),
			pct(c.Kinds[metrics.StartTransform]),
			pct(c.Kinds[metrics.StartWarm]),
		})
	}
	return "Figure 14: percentage of cold start, model transformation, and warm start\n" +
		table([]string{"workload", "system", "cold", "transform", "warm"}, rows)
}

// Fig16 reproduces Figure 16: the Fig 13 experiment on GPU-enabled servers.
func Fig16(o Options, setup ClusterSetup) Fig13Result {
	o = o.withDefaults()
	o.Profile = cost.GPU()
	return Fig13(o, setup)
}
