// Command optimus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	optimus-bench [flags] <experiment>...
//	optimus-bench all
//
// Experiments: fig2 fig3 fig4 fig5a fig5c fig8 fig11 fig12 fig13 fig14
// fig15 fig16 table1, plus the ablations: ablation-planner,
// ablation-safeguard, ablation-cache, ablation-balancer, ablation-idle, and
// the baselines: scale, soak, recovery, fanout, gateway. Results print as
// tables, or as JSON with -json; nothing is written to disk.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cost"
	"repro/internal/experiments"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "smaller samples and horizons for fast runs")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		seed    = flag.Int64("seed", 1, "random seed")
		gpu     = flag.Bool("gpu", false, "use the GPU hardware profile")
		nodes   = flag.Int("nodes", 4, "cluster nodes for the end-to-end experiments")
		slots   = flag.Int("containers", 4, "containers per node")
		horizon = flag.Duration("horizon", 24*time.Hour, "workload horizon for the end-to-end experiments")
		pairs   = flag.Int("pairs", 500, "random pairs for fig12")
		chaosRt = flag.String("chaos-rates", "", "comma-separated fault rates for the chaos/recovery sweeps (defaults per experiment)")
		scaleN  = flag.Int("scale-requests", 0, "trace size for the scale experiment (0 = 1M, or 50k with -quick)")
		stream  = flag.Bool("stream", false, "add the constant-memory streaming section to the scale experiment")
		streamN = flag.Int("stream-requests", 0, "streaming replay size for scale -stream (0 = 10M, or 500k with -quick)")
		windows = flag.Int("replay-windows", 0, "time windows for the scale experiment's windowed replays (0 = 32)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fo := cliutil.RegisterFanoutFlags(flag.CommandLine)
	flag.Parse()
	if err := fo.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProf, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	args := flag.Args()
	sweepRates, err := cliutil.ParseChaosRates(*chaosRt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: optimus-bench [flags] <experiment>... | all")
		fmt.Fprintln(os.Stderr, "experiments: fig2 fig3 fig4 fig5a fig5c fig8 fig11 fig12 fig13 fig14 fig15 fig16 table1")
		fmt.Fprintln(os.Stderr, "ablations:   ablation-planner ablation-safeguard ablation-cache ablation-balancer ablation-idle ablation-online ablation-alloc sweep-nodes sweep-load chaos recovery")
		fmt.Fprintln(os.Stderr, "baselines:   scale (replays one trace serial/indexed/windowed; -stream adds the streaming section)")
		fmt.Fprintln(os.Stderr, "             soak (chaos soak, baseline vs resilient)")
		fmt.Fprintln(os.Stderr, "             fanout (burst fan-out trees vs independent transforms)")
		fmt.Fprintln(os.Stderr, "             gateway (multi-gateway scaling + shared-vs-isolated plan cache)")
		fmt.Fprintln(os.Stderr, "-json prints any experiment's result as machine-readable JSON")
		os.Exit(2)
	}

	o := experiments.Options{Seed: *seed, Quick: *quick}
	if *gpu {
		o.Profile = cost.GPU()
	}
	setup := experiments.ClusterSetup{Nodes: *nodes, ContainersPerNode: *slots, Horizon: *horizon}

	all := []string{"fig2", "fig3", "fig4", "fig5a", "fig5c", "fig8", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "table1",
		"ablation-planner", "ablation-safeguard", "ablation-cache", "ablation-balancer", "ablation-idle",
		"ablation-online", "ablation-alloc", "sweep-nodes", "sweep-load", "chaos", "recovery"}
	if len(args) == 1 && args[0] == "all" {
		args = all
	}

	// Fig 13/14 share one run; Fig 16 is its GPU twin.
	var fig13 *experiments.Fig13Result
	getFig13 := func() experiments.Fig13Result {
		if fig13 == nil {
			r := experiments.Fig13(o, setup)
			fig13 = &r
		}
		return *fig13
	}

	for _, a := range args {
		start := time.Now()
		var out string
		var result any
		switch a {
		case "fig2":
			r := experiments.Fig2(o)
			out, result = r.Render(), r
		case "fig3":
			r := experiments.Fig3(o, 100)
			out, result = r.Render(), r
		case "fig4":
			r := experiments.Fig4(o)
			out, result = r.Render(), r
		case "fig5a":
			r := experiments.Fig5a(o)
			out, result = r.Render(), r
		case "fig5c":
			r := experiments.Fig5c(o, nil, 0)
			out, result = r.Render(), r
		case "fig8":
			r := experiments.Fig8(o)
			out, result = r.Render(), r
		case "fig11":
			r := experiments.Fig11(o)
			out, result = r.Render(), r
		case "fig12":
			r := experiments.Fig12(o, *pairs)
			out, result = r.Render(), r
		case "fig13":
			r := getFig13()
			out, result = r.Render(), r
		case "fig14":
			r := getFig13()
			out, result = r.RenderFig14(), r
		case "fig15":
			r := experiments.Fig15(o)
			out, result = r.Render(), r
		case "fig16":
			r := experiments.Fig16(o, setup)
			out, result = r.Render(), r
		case "table1":
			r := experiments.Table1(o)
			out, result = r.Render(), r
		case "ablation-planner":
			r := experiments.AblationPlannerQuality(o, 50)
			out, result = r.Render(), r
		case "ablation-safeguard":
			r := experiments.AblationSafeguard(o, 50)
			out, result = r.Render(), r
		case "ablation-cache":
			r := experiments.AblationPlanCache(o, 1000)
			out, result = r.Render(), r
		case "ablation-balancer":
			r := experiments.AblationBalancer(o, setup)
			out, result = r.Render(), r
		case "ablation-idle":
			r := experiments.AblationIdleThreshold(o, setup, nil)
			out, result = r.Render(), r
		case "ablation-online":
			r := experiments.AblationOnlineProfiling(o, setup)
			out, result = r.Render(), r
		case "ablation-alloc":
			r := experiments.AblationAllocation(o, setup)
			out, result = r.Render(), r
		case "sweep-nodes":
			r := experiments.Scalability(o, nil, *horizon)
			out, result = r.Render(), r
		case "sweep-load":
			r := experiments.LoadSweep(o, nil, *horizon)
			out, result = r.Render(), r
		case "chaos":
			r := experiments.Chaos(o, sweepRates, *horizon)
			out, result = r.Render(), r
		case "recovery":
			r := experiments.Recovery(o, sweepRates, *horizon)
			out, result = r.Render(), r
		case "fanout":
			r := experiments.Fanout(o, fo.Config())
			out, result = r.Render(), r
		case "gateway":
			r := experiments.Gateway(o)
			out, result = r.Render(), r
		case "soak":
			r := experiments.Soak(o, *horizon)
			out, result = r.Render(), r
		case "scale":
			r := experiments.Scale(o, *scaleN, 0, *windows)
			if *stream {
				s := experiments.StreamScale(o, *streamN, 0, *windows)
				r.Stream = &s
			}
			out, result = r.Render(), r
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
			os.Exit(2)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{"experiment": a, "result": result}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			fmt.Println(out)
			fmt.Printf("[%s completed in %v]\n\n", a, time.Since(start).Round(time.Millisecond))
		}
	}
}
