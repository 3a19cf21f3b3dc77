package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/zoo"
)

// ---------------------------------------------------------------- Figure 11

// Fig11Result reproduces Figure 11: the 21×21 inter-function transformation
// latency matrix over 11 representative CNNs and the 10 BERT variants, plus
// the load-from-scratch row.
type Fig11Result struct {
	Models []string
	// Matrix[i][j] is the latency of transforming model i into model j; the
	// diagonal transforms into a re-trained (different weights) copy.
	Matrix [][]time.Duration
	// Scratch[j] is the latency of loading model j from scratch (row 22).
	Scratch []time.Duration
	// Safeguarded[i][j] records where the safeguard chose a fresh load.
	Safeguarded [][]bool
	// MaxReduction is the best observed latency reduction vs scratch.
	MaxReduction float64
}

// Fig11 runs the experiment.
func Fig11(o Options) Fig11Result {
	o = o.withDefaults()
	cnn, bert := zoo.Representative21()
	pl := planner.New(cost.Exact(o.Profile), planner.AlgoGroup)

	var res Fig11Result
	graphs := make([]modelEntry, 0, len(cnn)+len(bert))
	for _, n := range cnn {
		graphs = append(graphs, modelEntry{n, imgZoo.MustGet(n)})
	}
	for _, n := range bert {
		graphs = append(graphs, modelEntry{n, bertZoo.MustGet(n)})
	}
	for _, e := range graphs {
		res.Models = append(res.Models, e.name)
		res.Scratch = append(res.Scratch, o.Profile.ModelLoad(e.g).Total())
	}
	for i, src := range graphs {
		row := make([]time.Duration, len(graphs))
		sg := make([]bool, len(graphs))
		for j, dst := range graphs {
			target := dst.g
			if i == j {
				target = reweight(dst.g, "retrained")
			}
			plan := pl.Plan(src.g, target)
			row[j], sg[j] = plan.TrueCost(o.Profile, src.g, target), plan.LoadFromScratch
			if red := 1 - float64(row[j])/float64(res.Scratch[j]); red > res.MaxReduction {
				res.MaxReduction = red
			}
		}
		res.Matrix = append(res.Matrix, row)
		res.Safeguarded = append(res.Safeguarded, sg)
	}
	return res
}

type modelEntry struct {
	name string
	g    *model.Graph
}

// Render prints the Fig 11 matrix in seconds.
func (r Fig11Result) Render() string {
	header := []string{"from\\to"}
	for j := range r.Models {
		header = append(header, fmt.Sprintf("m%02d", j+1))
	}
	rows := make([][]string, 0, len(r.Models)+2)
	for i, name := range r.Models {
		row := []string{fmt.Sprintf("m%02d %s", i+1, shorten(name))}
		for j := range r.Models {
			cell := secs(r.Matrix[i][j])
			if r.Safeguarded[i][j] {
				cell += "*"
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	scratch := []string{"scratch"}
	for _, d := range r.Scratch {
		scratch = append(scratch, secs(d))
	}
	rows = append(rows, scratch)
	return "Figure 11: inter-function model transformation latency (s); * = safeguard chose fresh load\n" +
		table(header, rows) +
		fmt.Sprintf("max reduction vs scratch: %s (paper: up to 99.08%%)\n", pct(r.MaxReduction))
}

func shorten(s string) string {
	if len(s) > 18 {
		return s[:18]
	}
	return s
}

// ---------------------------------------------------------------- Figure 12

// Fig12Result reproduces Figure 12: large-scale transformation vs loading
// latency over random pairs from Imgclsmob and NAS-Bench-201.
type Fig12Result struct {
	Pairs int
	// Per-zoo transformation and scratch-loading samples.
	ImgTransform, ImgLoad metrics.DurationStats
	NASTransform, NASLoad metrics.DurationStats
	// Reductions of mean latency (paper: 52.88 % and 94.48 %).
	ImgReduction, NASReduction float64
}

// Fig12 runs the experiment with the given pair count (paper: 500).
func Fig12(o Options, pairs int) Fig12Result {
	o = o.withDefaults()
	if o.Quick && pairs > 40 {
		pairs = 40
	}
	pl := planner.New(cost.Exact(o.Profile), planner.AlgoGroup)
	rng := rand.New(rand.NewSource(o.Seed))

	imgNames := imgZoo.Names()
	var imgT, imgL []time.Duration
	for k := 0; k < pairs; k++ {
		src := imgZoo.MustGet(imgNames[rng.Intn(len(imgNames))])
		dst := imgZoo.MustGet(imgNames[rng.Intn(len(imgNames))])
		plan := pl.Plan(src, dst)
		c := plan.TrueCost(o.Profile, src, dst)
		imgT = append(imgT, c)
		// The load sample is the same pair's destination, so the reduction
		// is the per-case saving (the safeguard bounds it at ≥ 0).
		imgL = append(imgL, o.Profile.ModelLoad(dst).Total())
	}

	var nasT, nasL []time.Duration
	for k := 0; k < pairs; k++ {
		si, di := rng.Intn(zoo.NASBenchSize), rng.Intn(zoo.NASBenchSize)
		src, err := zoo.NASBenchModel(si, 5, 10)
		if err != nil {
			panic(err)
		}
		dst, err := zoo.NASBenchModel(di, 5, 10)
		if err != nil {
			panic(err)
		}
		plan := pl.Plan(src, dst)
		c := plan.TrueCost(o.Profile, src, dst)
		nasT = append(nasT, c)
		nasL = append(nasL, o.Profile.ModelLoad(dst).Total())
	}

	res := Fig12Result{
		Pairs:        pairs,
		ImgTransform: metrics.SummarizeDurations(imgT),
		ImgLoad:      metrics.SummarizeDurations(imgL),
		NASTransform: metrics.SummarizeDurations(nasT),
		NASLoad:      metrics.SummarizeDurations(nasL),
	}
	res.ImgReduction = 1 - float64(res.ImgTransform.Mean)/float64(res.ImgLoad.Mean)
	res.NASReduction = 1 - float64(res.NASTransform.Mean)/float64(res.NASLoad.Mean)
	return res
}

// Render prints the Fig 12 summary.
func (r Fig12Result) Render() string {
	row := func(name string, st metrics.DurationStats) []string {
		return []string{name, fmt.Sprint(st.Count), secs(st.Min), secs(st.Mean), secs(st.Max)}
	}
	rows := [][]string{
		row("imgclsmob transform", r.ImgTransform),
		row("imgclsmob load", r.ImgLoad),
		row("nasbench transform", r.NASTransform),
		row("nasbench load", r.NASLoad),
	}
	return fmt.Sprintf("Figure 12: large-scale transformation latency over %d random pairs\n", r.Pairs) +
		table([]string{"series", "n", "min(s)", "mean(s)", "max(s)"}, rows) +
		fmt.Sprintf("mean-latency reduction: imgclsmob %s (paper: 52.88%%), nasbench %s (paper: 94.48%%)\n",
			pct(r.ImgReduction), pct(r.NASReduction))
}

// ---------------------------------------------------------------- Figure 15

// Fig15Case is the meta-operator latency proportion of one transformation.
type Fig15Case struct {
	Src, Dst string
	Total    time.Duration
	ByKind   map[metaop.Kind]time.Duration
	Counts   map[metaop.Kind]int
}

// Fig15Result reproduces Figure 15: meta-operator latency proportions for
// three transformation cases.
type Fig15Result struct{ Cases []Fig15Case }

// Fig15 runs the experiment.
func Fig15(o Options) Fig15Result {
	o = o.withDefaults()
	pl := planner.New(cost.Exact(o.Profile), planner.AlgoGroup)
	pairs := [][2]string{
		{"resnet50-imagenet", "resnet101-imagenet"},
		{"resnet101-imagenet", "resnet50-imagenet"},
		{"vgg16-imagenet", "vgg19-imagenet"},
		// A width-variant pair whose transformation is Reshape-dominated
		// (the paper's three cases match shapes exactly under our
		// shape-first group matcher, so Reshape shows up only here).
		{"mobilenet-w0.75-imagenet", "mobilenet-w1-imagenet"},
	}
	var res Fig15Result
	for _, pr := range pairs {
		src, dst := imgZoo.MustGet(pr[0]), imgZoo.MustGet(pr[1])
		plan := pl.Plan(src, dst)
		res.Cases = append(res.Cases, Fig15Case{
			Src: pr[0], Dst: pr[1],
			Total:  plan.EstCost,
			ByKind: plan.CostByKind(),
			Counts: plan.CountByKind(),
		})
	}
	return res
}

// Render prints the Fig 15 proportions.
func (r Fig15Result) Render() string {
	header := []string{"transformation", "total(ms)"}
	for _, k := range metaop.Kinds() {
		header = append(header, k.String()+"%")
	}
	rows := make([][]string, 0, len(r.Cases))
	for _, c := range r.Cases {
		row := []string{c.Src + " → " + c.Dst, ms(c.Total)}
		for _, k := range metaop.Kinds() {
			frac := 0.0
			if c.Total > 0 {
				frac = float64(c.ByKind[k]) / float64(c.Total)
			}
			row = append(row, pct(frac))
		}
		rows = append(rows, row)
	}
	return "Figure 15: latency proportion of varying meta-operators\n" + table(header, rows)
}

// ---------------------------------------------------------------- Table 1

// Table1Case compares basic (Munkres) and improved (group) planning for one
// transformation.
type Table1Case struct {
	Src, Dst string
	// Wall-clock planning times measured in this process: the fastest of
	// five interleaved runs of each planner.
	BasicPlanning, ImprovedPlanning time.Duration
	// Estimated plan execution times.
	BasicExecution, ImprovedExecution time.Duration
}

// Table1Result reproduces Table 1.
type Table1Result struct{ Cases []Table1Case }

// Table1 runs the experiment, measuring real planning wall-clock time.
func Table1(o Options) Table1Result {
	o = o.withDefaults()
	est := cost.Exact(o.Profile)
	basic := planner.New(est, planner.AlgoHungarian)
	improved := planner.New(est, planner.AlgoGroup)
	pairs := [][2]string{
		{"vgg16-imagenet", "vgg19-imagenet"},
		{"vgg16-imagenet", "resnet50-imagenet"},
		{"resnet50-imagenet", "vgg19-imagenet"},
	}
	var res Table1Result
	for _, pr := range pairs {
		src, dst := imgZoo.MustGet(pr[0]), imgZoo.MustGet(pr[1])
		var bp, ip *metaop.Plan
		took := fastest(func() { bp = basic.Plan(src, dst) }, func() { ip = improved.Plan(src, dst) })
		res.Cases = append(res.Cases, Table1Case{
			Src: pr[0], Dst: pr[1],
			BasicPlanning: took[0], ImprovedPlanning: took[1],
			BasicExecution:    bp.TrueCost(o.Profile, src, dst),
			ImprovedExecution: ip.TrueCost(o.Profile, src, dst),
		})
	}
	return res
}

// fastest runs fns interleaved, five times each in this process, and returns
// each one's minimum wall time. One sample lets a GC pause or a preemption
// decide a comparison; the minimum of interleaved samples does not.
func fastest(fns ...func()) []time.Duration {
	best := make([]time.Duration, len(fns))
	for r := 0; r < 5; r++ {
		for i, fn := range fns {
			t0 := time.Now()
			fn()
			if d := time.Since(t0); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

// Render prints Table 1.
func (r Table1Result) Render() string {
	rows := make([][]string, 0, len(r.Cases))
	for _, c := range r.Cases {
		rows = append(rows, []string{
			c.Src + " → " + c.Dst,
			fmt.Sprint(c.BasicPlanning), secs(c.BasicExecution),
			fmt.Sprint(c.ImprovedPlanning), secs(c.ImprovedExecution),
		})
	}
	return "Table 1: planning and execution latency, basic (Munkres) vs improved (group)\n" +
		table([]string{"case", "basic plan", "basic exec(s)", "improved plan", "improved exec(s)"}, rows)
}
