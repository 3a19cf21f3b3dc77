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
// million-request trace on a cluster of disjoint node groups replayed three
// ways —
//
//   - serial/scan: the legacy O(nodes×containers) scanning router
//     (Config.RouteScan), the pre-index engine baseline;
//   - indexed: the incrementally-maintained routing index, serial replay;
//   - windowed: the indexed engine streaming the trace through time windows
//     whose independent partitions — one per node group — replay in
//     parallel (simulate.RunWindowed).
//
// Wall times and speedups are machine-dependent; request counts, the
// equality checks and allocation counts are reproducible.
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

	SerialMS   float64 `json:"serial_ms"`
	IndexedMS  float64 `json:"indexed_ms"`
	WindowedMS float64 `json:"windowed_ms"`
	// SpeedupIndexed = serial/indexed, SpeedupWindowed = indexed/windowed,
	// SpeedupTotal = serial/windowed.
	SpeedupIndexed  float64 `json:"speedup_indexed"`
	SpeedupWindowed float64 `json:"speedup_windowed"`
	SpeedupTotal    float64 `json:"speedup_total"`

	SerialAllocsPerReq   float64 `json:"serial_allocs_per_req"`
	IndexedAllocsPerReq  float64 `json:"indexed_allocs_per_req"`
	WindowedAllocsPerReq float64 `json:"windowed_allocs_per_req"`

	// IndexedMatchesScan: the indexed replay's records are byte-identical to
	// the scanning replay's. WindowedMatchesSerial: the windowed replay ran
	// windowed and its summary (count, exact sums and max, latency sketch,
	// kind counts, faults) equals the summary of the serial replay's records.
	IndexedMatchesScan    bool `json:"indexed_matches_scan"`
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
	// Scan cost grows with the group's live container population, index cost
	// does not. The population here comes from keep-alive bloat — the
	// many-functions-few-invocations shape serverless ML deployments actually
	// have (§2): each group packs ~a hundred functions that each hold one or
	// two warm containers, so every scanning route walks hundreds of
	// containers while the index answers from counters.
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

// sameRecords reports byte-identity of two replays' record streams.
func sameRecords(a, b *metrics.Collector) bool {
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) || a.Faults != b.Faults {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
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

	// The two materialized replays together allocate ~4 record slices of
	// ~100 MB each at the million-request scale; with the default GOGC the
	// collector heaps trigger repeated full marks that tax whichever replay
	// runs last. Relax GC during the benchmark and drop each replay's
	// records as soon as the correctness checks are done with them.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))

	scanCfg := fx.cfg
	scanCfg.RouteScan = true
	var serial, indexed *metrics.Collector
	replay := func(cfg simulate.Config, out **metrics.Collector) func() {
		return func() {
			col, err := simulate.New(cfg, fx.fns).Run(fx.trace)
			if err != nil {
				panic(err)
			}
			*out = col
		}
	}
	res.SerialMS, res.SerialAllocsPerReq = timedRun(res.Requests, replay(scanCfg, &serial))
	res.IndexedMS, res.IndexedAllocsPerReq = timedRun(res.Requests, replay(fx.cfg, &indexed))
	res.IndexedMatchesScan = sameRecords(serial, indexed)
	serialSum := *metrics.SummaryOf(serial)
	serial, indexed = nil, nil

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
	if res.IndexedMS > 0 {
		res.SpeedupIndexed = res.SerialMS / res.IndexedMS
	}
	if res.WindowedMS > 0 {
		res.SpeedupWindowed = res.IndexedMS / res.WindowedMS
		res.SpeedupTotal = res.SerialMS / res.WindowedMS
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
	okStr := func(b bool) string {
		if b {
			return "ok"
		}
		return "MISMATCH"
	}
	out := fmt.Sprintf(`Simulator scale benchmark (seed %d)
%d requests, %d functions, %d nodes in %d groups (%s, %d workers)
  serial/scan  %8.1f ms   %6.1f allocs/req
  indexed      %8.1f ms   %6.1f allocs/req   (%.2fx vs scan, records %s)
  windowed     %8.1f ms   %6.1f allocs/req   (%.2fx vs indexed, summary %s)
  total speedup %.2fx`,
		r.Seed, r.Requests, r.Functions, r.Nodes, r.Groups, windowed, r.Workers,
		r.SerialMS, r.SerialAllocsPerReq,
		r.IndexedMS, r.IndexedAllocsPerReq, r.SpeedupIndexed, okStr(r.IndexedMatchesScan),
		r.WindowedMS, r.WindowedAllocsPerReq, r.SpeedupWindowed, okStr(r.WindowedMatchesSerial),
		r.SpeedupTotal)
	if r.Stream != nil {
		out += "\n" + r.Stream.Render()
	}
	return out
}
