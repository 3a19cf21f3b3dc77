package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// ScaleBench is the simulator hot-path scaling benchmark: one synthetic
// million-request trace on a cluster of disjoint node groups replayed two
// ways —
//
//   - indexed: the incrementally-maintained routing index, serial replay;
//   - windowed: the indexed engine streaming the trace through time windows
//     whose independent partitions — one per node group — replay in
//     parallel (simulate.RunWindowed).
//
// Wall times and speedups are machine-dependent; request counts, the
// equality check and allocation counts are reproducible.
type ScaleBench struct {
	Seed      int64 `json:"seed"`
	Requests  int   `json:"requests"`
	Functions int   `json:"functions"`
	Nodes     int   `json:"nodes"`
	Groups    int   `json:"groups"`
	Workers   int   `json:"workers"`
	// Windows is the windowed replay's window count and MaxPartitions the
	// most partitions any window split into; WindowedSerialReason is
	// non-empty if the windowed replay fell back to serial.
	Windows              int    `json:"windows"`
	MaxPartitions        int    `json:"max_partitions"`
	WindowedSerialReason string `json:"windowed_serial_reason,omitempty"`

	IndexedMS  float64 `json:"indexed_ms"`
	WindowedMS float64 `json:"windowed_ms"`
	// SpeedupWindowed = indexed/windowed.
	SpeedupWindowed float64 `json:"speedup_windowed"`

	IndexedAllocsPerReq  float64 `json:"indexed_allocs_per_req"`
	WindowedAllocsPerReq float64 `json:"windowed_allocs_per_req"`

	// WindowedMatchesSerial: the windowed replay ran windowed and its summary
	// (count, exact sums and max, latency sketch, kind counts, faults) equals
	// the summary of the serial replay's records.
	WindowedMatchesSerial bool `json:"windowed_matches_serial"`

	// Stream, when present, is the constant-memory streaming replay section
	// (`optimus-bench scale -stream`); see StreamScale.
	Stream *StreamScaleBench `json:"stream,omitempty"`
}

// scaleFixture is the synthetic cluster: `groups` disjoint node groups of
// `nodesPerGroup` nodes each, with functions bound round-robin to groups.
type scaleFixture struct {
	cfg   simulate.Config
	fns   []*simulate.Function
	trace *workload.Trace
}

// scaleSpec is scaleFixture without the materialized trace: the rate table
// and horizon let streaming benchmarks feed the simulator straight from lazy
// generators, so trace size never touches memory.
type scaleSpec struct {
	cfg     simulate.Config
	fns     []*simulate.Function
	rates   map[string]float64
	horizon time.Duration
}

// scaleCluster builds the fixture: functions cycle the quick model catalog
// (so planning stays cheap and start kinds mix), and Poisson rates are tuned
// to land near the requested trace size.
func scaleCluster(o Options, requests, groups int) scaleFixture {
	spec := scaleClusterSpec(o, requests, groups)
	return scaleFixture{
		cfg:   spec.cfg,
		fns:   spec.fns,
		trace: workload.PoissonRates(spec.rates, spec.horizon, o.Seed),
	}
}

// scaleClusterSpec builds the cluster and rate table without materializing
// the trace.
func scaleClusterSpec(o Options, requests, groups int) scaleSpec {
	// Each group holds hundreds of live containers, which a scanning route
	// would walk while the index answers from counters. The population comes
	// from keep-alive bloat — the many-functions-few-invocations shape
	// serverless ML deployments actually have (§2): each group packs ~a
	// hundred functions that each hold one or two warm containers.
	const nodesPerGroup = 8
	const containersPerNode = 32
	const fnsPerGroup = 128
	horizon := 30 * time.Minute

	base := DefaultFunctionSet(true)
	nfns := groups * fnsPerGroup
	fns := make([]*simulate.Function, nfns)
	names := make([]string, nfns)
	placement := make(map[string][]int, nfns)
	rates := make(map[string]float64, nfns)
	perFnRate := float64(requests) / horizon.Seconds() / float64(nfns)
	for i := range fns {
		name := fmt.Sprintf("fn-%03d", i)
		fns[i] = &simulate.Function{Name: name, Model: base[i%len(base)].Model}
		names[i] = name
		g := i % groups
		nodes := make([]int, nodesPerGroup)
		for j := range nodes {
			nodes[j] = g*nodesPerGroup + j
		}
		placement[name] = nodes
		// Skew rates across functions (heavy head, long tail) so warm reuse,
		// repurposing and cold starts all occur.
		rates[name] = perFnRate * (0.25 + 1.5*float64(i%8)/7)
	}
	return scaleSpec{
		cfg: simulate.Config{
			Nodes:             groups * nodesPerGroup,
			ContainersPerNode: containersPerNode,
			Profile:           o.Profile,
			Policy:            policy.Optimus{},
			Placement:         placement,
			Seed:              o.Seed,
		},
		fns:     fns,
		rates:   rates,
		horizon: horizon,
	}
}

// timedRun measures one replay's wall clock and per-request allocations.
func timedRun(requests int, run func()) (ms, allocsPerReq float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	run()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return msF(wall), float64(after.Mallocs-before.Mallocs) / float64(requests)
}

// Scale runs the hot-path scaling benchmark. requests <= 0 defaults to one
// million (50k in quick mode); groups and windows <= 0 default to 8 and 32.
// The windowed replay's worker bound is the group count, so the parallel
// path runs even on a single-core machine (where its wall-clock win is
// neutral by design).
func Scale(o Options, requests, groups, windows int) ScaleBench {
	o = o.withDefaults()
	if requests <= 0 {
		requests = 1_000_000
		if o.Quick {
			requests = 50_000
		}
	}
	if groups <= 0 {
		groups = 8
	}
	if windows <= 0 {
		windows = 32
	}
	fx := scaleCluster(o, requests, groups)
	res := ScaleBench{
		Seed:      o.Seed,
		Requests:  fx.trace.Len(),
		Functions: len(fx.fns),
		Nodes:     fx.cfg.Nodes,
		Groups:    groups,
		Workers:   groups,
		Windows:   windows,
	}

	// The materialized replay allocates ~2 record slices of ~100 MB each at
	// the million-request scale; with the default GOGC the collector heap
	// triggers repeated full marks that tax the windowed replay after it.
	// Relax GC during the benchmark and drop the records as soon as their
	// summary is taken.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))

	var indexed *metrics.Collector
	res.IndexedMS, res.IndexedAllocsPerReq = timedRun(res.Requests, func() {
		var err error
		if indexed, err = simulate.New(fx.cfg, fx.fns).Run(fx.trace); err != nil {
			panic(err)
		}
	})
	serialSum := *metrics.SummaryOf(indexed)
	indexed = nil

	var win *metrics.Summary
	var report simulate.WindowReport
	res.WindowedMS, res.WindowedAllocsPerReq = timedRun(res.Requests, func() {
		var err error
		win, report, err = simulate.RunWindowed(fx.cfg, fx.fns, fx.trace.Cursor(), fx.trace.Duration, windows, groups)
		if err != nil {
			panic(err)
		}
	})
	res.MaxPartitions = report.MaxGroups
	res.WindowedSerialReason = report.SerialReason
	if res.WindowedMS > 0 {
		res.SpeedupWindowed = res.IndexedMS / res.WindowedMS
	}
	res.WindowedMatchesSerial = report.Windowed() && *win == serialSum
	return res
}

// Render prints the benchmark digest.
func (r ScaleBench) Render() string {
	windowed := fmt.Sprintf("%d windows, max %d partitions", r.Windows, r.MaxPartitions)
	if r.WindowedSerialReason != "" {
		windowed = "serial: " + r.WindowedSerialReason
	}
	summary := "ok"
	if !r.WindowedMatchesSerial {
		summary = "MISMATCH"
	}
	out := fmt.Sprintf(`Simulator scale benchmark (seed %d)
%d requests, %d functions, %d nodes in %d groups (%s, %d workers)
  indexed      %8.1f ms   %6.1f allocs/req
  windowed     %8.1f ms   %6.1f allocs/req   (%.2fx vs indexed, summary %s)`,
		r.Seed, r.Requests, r.Functions, r.Nodes, r.Groups, windowed, r.Workers,
		r.IndexedMS, r.IndexedAllocsPerReq,
		r.WindowedMS, r.WindowedAllocsPerReq, r.SpeedupWindowed, summary)
	if r.Stream != nil {
		out += "\n" + r.Stream.Render()
	}
	return out
}
