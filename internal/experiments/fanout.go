package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// Fanout experiment: a placement-pinned function absorbs a request burst by
// growing a transform fan-out tree into the cluster's free capacity. Four
// fixed-seed runs over the same trace:
//
//   - tree / independent: zero faults. The tree pipelines donations — every
//     completed replica becomes a donor for the next wave — while the
//     independent baseline only lets the original seeds donate, modeling N
//     independent transforms under the same per-node bandwidth cap. Both end
//     at the same warm set; time-to-N-warm is the contrast.
//   - tree-crash / independent-crash: the same pair under donor-crash
//     injection. Orphaned subtrees re-parent onto the nearest healthy
//     ancestor, so the tree still reaches target warmth and its goodput must
//     not fall below the baseline's.
//
// A second same-seed tree-crash run proves byte-identical determinism.

// FanoutTargetWarm is N in time-to-N-warm: the replica count every run must
// reach. The acceptance gate requires N >= 16.
const FanoutTargetWarm = 16

// FanoutRun is one configuration's measurements over the burst trace.
type FanoutRun struct {
	Mode     string `json:"mode"`
	Arrivals int    `json:"arrivals"`
	Served   int    `json:"served"`
	Dropped  int    `json:"dropped"`
	// Goodput is served/arrivals.
	Goodput float64 `json:"goodput"`
	MeanMS  float64 `json:"mean_ms"`
	P99MS   float64 `json:"p99_ms"`
	// TimeToWarmMS is the trigger-to-N-warm latency of the run's tree.
	TimeToWarmMS float64             `json:"time_to_warm_ms"`
	Stats        metrics.FanoutStats `json:"stats"`
	Faults       metrics.FaultStats  `json:"faults"`
}

// FanoutResult is the experiment's result: the zero-fault and donor-crash
// pairs plus the determinism proof.
type FanoutResult struct {
	Seed       int64        `json:"seed"`
	TargetWarm int          `json:"target_warm"`
	Rates      faults.Rates `json:"crash_rates"`

	Tree             FanoutRun `json:"tree"`
	Independent      FanoutRun `json:"independent"`
	TreeCrash        FanoutRun `json:"tree_crash"`
	IndependentCrash FanoutRun `json:"independent_crash"`

	// Deterministic records that a second same-seed tree-crash run produced
	// byte-identical measurements.
	Deterministic bool `json:"deterministic"`
}

// fanoutTrace builds the burst workload: two concurrent warm-up requests
// (seeding both of the pinned node's slots), then a burst that saturates the
// pinned node and queues past the trigger threshold.
func fanoutTrace(burst int) *workload.Trace {
	const name = "resnet18-imagenet"
	reqs := []workload.Request{{Function: name, At: 0}, {Function: name, At: 0}}
	at := 5 * time.Minute
	for i := 0; i < burst; i++ {
		reqs = append(reqs, workload.Request{Function: name, At: at + time.Duration(i)*time.Millisecond})
	}
	return &workload.Trace{Duration: at + 2*time.Hour, Requests: reqs}
}

// fanoutCrashRates is the donor-crash injection mix of the crash pair.
func fanoutCrashRates() faults.Rates {
	return faults.Rates{FanoutCrash: 0.3}
}

// fanoutExpConfig builds one mode's simulator config: the function pinned to
// node 0, nine more nodes holding the free capacity the tree grows into.
func fanoutExpConfig(o Options, fc fanout.Config, independent bool, rates faults.Rates) simulate.Config {
	fc = fc.WithDefaults()
	fc.Enabled = true
	fc.Independent = independent
	if fc.MaxRecipients < FanoutTargetWarm {
		fc.MaxRecipients = FanoutTargetWarm
	}
	return simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             10,
		ContainersPerNode: 2,
		Profile:           o.Profile,
		Seed:              o.Seed,
		Placement:         map[string][]int{"resnet18-imagenet": {0}},
		Fanout:            fc,
		Faults:            rates,
		// Give the per-pair breaker enough budget that donor crashes exercise
		// re-parenting instead of short-circuiting the whole tree to fallback
		// loads on the first failure.
		Breaker: supervisor.BreakerConfig{Threshold: 6, Cooldown: 10 * time.Minute},
	}
}

// fanoutOnce replays the trace under one mode and folds the run.
func fanoutOnce(o Options, fc fanout.Config, fns []*simulate.Function, tr *workload.Trace, mode string, independent bool, rates faults.Rates) FanoutRun {
	sim := simulate.New(fanoutExpConfig(o, fc, independent, rates), fns)
	col, err := sim.Run(tr)
	if err != nil {
		panic(err)
	}
	run := FanoutRun{
		Mode:         mode,
		Arrivals:     col.Len() + col.Faults.Dropped,
		Served:       col.Len(),
		Dropped:      col.Faults.Dropped,
		MeanMS:       msF(col.MeanLatency()),
		P99MS:        msF(col.Percentile(99)),
		TimeToWarmMS: msF(col.Fanout.TimeToWarm),
		Stats:        col.Fanout,
		Faults:       col.Faults,
	}
	if run.Arrivals > 0 {
		run.Goodput = float64(run.Served) / float64(run.Arrivals)
	}
	return run
}

// Fanout runs the four-way burst comparison and double-runs the tree-crash
// mode to prove determinism. A zero fc takes the experiment defaults
// (bandwidth 2, threshold 4, 16 recipients).
func Fanout(o Options, fc fanout.Config) FanoutResult {
	o = o.withDefaults()
	fns := []*simulate.Function{{Name: "resnet18-imagenet", Model: imgZoo.MustGet("resnet18-imagenet")}}
	tr := fanoutTrace(120)
	rates := fanoutCrashRates()

	res := FanoutResult{
		Seed:             o.Seed,
		TargetWarm:       FanoutTargetWarm,
		Rates:            rates,
		Tree:             fanoutOnce(o, fc, fns, tr, "tree", false, faults.Rates{}),
		Independent:      fanoutOnce(o, fc, fns, tr, "independent", true, faults.Rates{}),
		TreeCrash:        fanoutOnce(o, fc, fns, tr, "tree-crash", false, rates),
		IndependentCrash: fanoutOnce(o, fc, fns, tr, "independent-crash", true, rates),
	}
	rerun := fanoutOnce(o, fc, fns, tr, "tree-crash", false, rates)
	a, err := json.Marshal(res.TreeCrash)
	if err != nil {
		panic(err)
	}
	b, err := json.Marshal(rerun)
	if err != nil {
		panic(err)
	}
	res.Deterministic = bytes.Equal(a, b)
	return res
}

// Render prints the four-run digest.
func (r FanoutResult) Render() string {
	rows := make([][]string, 0, 4)
	for _, p := range []FanoutRun{r.Tree, r.Independent, r.TreeCrash, r.IndependentCrash} {
		rows = append(rows, []string{
			p.Mode,
			fmt.Sprint(p.Arrivals),
			fmt.Sprint(p.Dropped),
			fmt.Sprintf("%.4f", p.Goodput),
			fmt.Sprintf("%.1f", p.MeanMS),
			fmt.Sprintf("%.1f", p.TimeToWarmMS),
			fmt.Sprint(p.Stats.Recipients),
			fmt.Sprint(p.Stats.Waves),
			fmt.Sprint(p.Stats.DonorCrashes),
			fmt.Sprint(p.Stats.Reparents),
			fmt.Sprint(p.Stats.LoadFallbacks),
		})
	}
	det := "deterministic: second same-seed tree-crash run was byte-identical"
	if !r.Deterministic {
		det = "NONDETERMINISTIC: same-seed reruns diverged"
	}
	return fmt.Sprintf("Extension: fan-out transform trees (time-to-%d-warm, pipelined waves vs independent donation; crash pair under donor-crash injection)\n", r.TargetWarm) +
		table([]string{"mode", "arrivals", "dropped", "goodput", "mean(ms)", "warm(ms)", "replicas", "waves", "crashes", "reparents", "fallbacks"}, rows) +
		"\n" + det
}
