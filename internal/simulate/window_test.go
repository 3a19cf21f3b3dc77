package simulate_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// groupNames covers eight functions, split 4/4 across two disjoint node
// groups by groupPlacement.
var groupNames = []string{
	"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet",
	"vgg19-imagenet", "densenet121-imagenet", "densenet169-imagenet", "mobilenet-w1-imagenet",
}

// groupPlacement maps the first four functions onto nodes {0,1} and the
// rest onto nodes {2,3}: two independent groups.
func groupPlacement() map[string][]int {
	out := map[string][]int{}
	for i, n := range groupNames {
		if i < 4 {
			out[n] = []int{0, 1}
		} else {
			out[n] = []int{2, 3}
		}
	}
	return out
}

func groupConfig() simulate.Config {
	return simulate.Config{
		Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 3,
		Placement: groupPlacement(),
		Seed:      11,
	}
}

// mixedRates assigns the paper's three intensities round-robin, the rate
// table workload.MixedPoisson uses.
func mixedRates(names []string) map[string]float64 {
	levels := []float64{workload.RateFrequent, workload.RateMiddle, workload.RateInfrequent}
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = levels[i%len(levels)]
	}
	return out
}

// overlapRates places the eight functions on two would-be groups ({0,1} and
// {2,3}) plus one rare "bridge" function spanning {1,2}, which connects the
// groups into a single component: windowed replay parallelizes exactly the
// windows where the bridge is inactive.
func overlapRates() (names []string, rates map[string]float64, placement map[string][]int) {
	names = append([]string(nil), groupNames...)
	placement = groupPlacement()
	rates = map[string]float64{}
	for _, n := range names {
		rates[n] = 0.02
	}
	bridge := names[3]
	placement[bridge] = []int{1, 2}
	rates[bridge] = 0.0004
	return names, rates, placement
}

func overlapConfig() simulate.Config {
	_, _, placement := overlapRates()
	return simulate.Config{
		Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 3,
		Placement: placement,
		Seed:      17,
	}
}

// TestRunStreamMatchesRun is the streaming-engine identity: replaying the
// same trace through RunStream (constant-memory summary) and Run (record
// collector) must produce byte-identical summaries — digest state, exact
// sums, kind counts, fault tallies.
func TestRunStreamMatchesRun(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := overlapConfig()
	tr := workload.PoissonRates(rates, 6*time.Hour, 41)
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	serialSim := simulate.New(cfg, fns)
	col, err := serialSim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	streamSim := simulate.New(cfg, fns)
	sum, err := streamSim.RunStream(tr.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if want := *metrics.SummaryOf(col); *sum != want {
		t.Fatalf("streamed summary != collector summary:\nstream count=%d mean=%v p99=%v\nrun    count=%d mean=%v p99=%v",
			sum.Count(), sum.MeanLatency(), sum.Percentile(99),
			want.Count(), want.MeanLatency(), want.Percentile(99))
	}
	if streamSim.Collector().Len() != 0 {
		t.Fatalf("streaming run retained %d records", streamSim.Collector().Len())
	}
	// The lazy generator source must agree with the materialized trace too
	// (the workload package proves byte-identity; this pins the whole path).
	genSim := simulate.New(cfg, fns)
	gsum, err := genSim.RunStream(workload.StreamPoissonRates(rates, 6*time.Hour, 41))
	if err != nil {
		t.Fatal(err)
	}
	if *gsum != *sum {
		t.Fatal("generator-fed stream != trace-fed stream")
	}
}

// windowCase is one placement and configuration on which windowed replay
// must reproduce the serial engine exactly.
type windowCase struct {
	cfg   simulate.Config
	fns   []*simulate.Function
	rates map[string]float64
	dur   time.Duration
	seed  int64
	// windows and workers shape the windowed run.
	windows, workers int
	// wantGroups, when nonzero, is the exact MaxGroups; otherwise at least
	// two partitions must form in some window.
	wantGroups int
	// wantConflict requires at least one window to replay serially because
	// overlapping placements merged its partitions.
	wantConflict bool
}

// checkWindowed is the optimistic-parallelism equivalence proof for one
// windowCase. A cross-checked windowed replay compares each window's record
// multiset with a lockstep serial oracle (and panics on a divergence); it
// must split windows into independent partitions. The plain windowed replay
// must then reproduce its report and summary exactly.
func checkWindowed(t *testing.T, tc windowCase) {
	t.Helper()
	src := func() workload.Cursor { return workload.StreamPoissonRates(tc.rates, tc.dur, tc.seed) }
	checked := tc.cfg
	checked.CrossCheckWindows = true
	want, rep, err := simulate.RunWindowed(checked, tc.fns, src(), tc.dur, tc.windows, tc.workers)
	if err != nil {
		t.Fatal(err)
	}
	if want.Count() == 0 {
		t.Fatal("empty trace")
	}
	if !rep.Windowed() {
		t.Fatalf("expected windowed run, got serial: %q", rep.SerialReason)
	}
	if rep.ParallelWindows == 0 {
		t.Fatalf("no window parallelized: %+v", rep)
	}
	if tc.wantConflict && rep.ConflictWindows == 0 {
		t.Fatalf("overlapping placement never forced a conflict window: %+v", rep)
	}
	if tc.wantGroups > 0 && rep.MaxGroups != tc.wantGroups {
		t.Fatalf("MaxGroups = %d, want %d", rep.MaxGroups, tc.wantGroups)
	}
	if rep.MaxGroups < 2 {
		t.Fatalf("MaxGroups = %d, want >= 2", rep.MaxGroups)
	}
	if rep.Workers != tc.workers {
		t.Fatalf("Workers = %d, want %d", rep.Workers, tc.workers)
	}
	win, plainRep, err := simulate.RunWindowed(tc.cfg, tc.fns, src(), tc.dur, tc.windows, tc.workers)
	if err != nil {
		t.Fatal(err)
	}
	if plainRep != rep {
		t.Fatalf("plain report %+v != cross-checked report %+v", plainRep, rep)
	}
	if *win != *want {
		t.Fatalf("windowed summary != serial-checked summary:\nwindowed count=%d mean=%v p99=%v hit=%v\nchecked  count=%d mean=%v p99=%v hit=%v\nreport %+v",
			win.Count(), win.MeanLatency(), win.Percentile(99), win.HitRatio(),
			want.Count(), want.MeanLatency(), want.Percentile(99), want.HitRatio(), rep)
	}
}

// TestWindowedMatchesSerial runs checkWindowed on the bridge-connected
// placement: windowed replay parallelizes the windows where the bridge is
// inactive and replays the rest serially. Run with -race: it also exercises
// the concurrent partition workers.
func TestWindowedMatchesSerial(t *testing.T) {
	names, rates, _ := overlapRates()
	checkWindowed(t, windowCase{
		cfg: overlapConfig(), fns: testFunctions(t, names...), rates: rates,
		dur: 6 * time.Hour, seed: 23, windows: 32, workers: 4, wantConflict: true,
	})
}

// TestShardDeterminism runs checkWindowed on two disjoint node groups, so
// every window splits into the same two shards (partitions), under the
// simulator's planner (AlgoGroup): the merged shards must equal the serial
// replay.
func TestShardDeterminism(t *testing.T) {
	t.Run(planner.AlgoGroup.String(), func(t *testing.T) {
		checkWindowed(t, windowCase{
			cfg: groupConfig(), fns: testFunctions(t, groupNames...), rates: mixedRates(groupNames),
			dur: 12 * time.Hour, seed: 23, windows: 32, workers: 4, wantGroups: 2,
		})
	})
}

// TestShardDeterminismRepeatable pins run-to-run stability of windowed replay
// on the two-group placement: two replays of the same trace on different
// worker counts give identical summaries and reports, whatever the goroutine
// scheduling.
func TestShardDeterminismRepeatable(t *testing.T) {
	fns := testFunctions(t, groupNames...)
	cfg := groupConfig()
	rates := mixedRates(groupNames)
	const dur = 6 * time.Hour
	run := func(workers int) (*metrics.Summary, simulate.WindowReport) {
		sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 77), dur, 32, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Windowed() || rep.ParallelWindows == 0 {
			t.Fatalf("workers=%d did not run parallel windows: %+v", workers, rep)
		}
		return sum, rep
	}
	a, repA := run(2)
	b, repB := run(4)
	repB.Workers = repA.Workers
	if repA != repB {
		t.Fatalf("reports differ across worker counts:\n%+v\n%+v", repA, repB)
	}
	if *a != *b {
		t.Fatalf("summaries differ across worker counts: count %d vs %d, mean %v vs %v",
			a.Count(), b.Count(), a.MeanLatency(), b.MeanLatency())
	}
}

// TestShardFourWay runs checkWindowed with more shards than workers (four
// single-node partitions on a bounded pool of two).
func TestShardFourWay(t *testing.T) {
	placement := map[string][]int{}
	for i, n := range groupNames {
		placement[n] = []int{i % 4} // 4 single-node partitions, 2 fns each
	}
	checkWindowed(t, windowCase{
		cfg: simulate.Config{
			Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 3,
			Placement: placement, Seed: 3,
		},
		fns: testFunctions(t, groupNames...), rates: mixedRates(groupNames),
		dur: 6 * time.Hour, seed: 31, windows: 32, workers: 2, wantGroups: 4,
	})
}

// TestShardSerialFallbacks covers each coupling between two otherwise
// disjoint node groups. A global coupling (fault injection, online
// profiling, one worker) sends the whole run to the serial path with a
// reason; a placement coupling (no placement, a chain of overlapping
// groups, an unplaced function spanning every node) keeps windowed replay
// but replays the windows it merges serially. Either way the summary must
// equal a plain serial streaming run.
func TestShardSerialFallbacks(t *testing.T) {
	names := groupNames[:4]
	fns := testFunctions(t, names...)
	rates := mixedRates(names)
	const dur = time.Hour
	cases := []struct {
		name    string
		mut     func(*simulate.Config)
		workers int
		// reason is the expected fallback; "" expects windowed replay
		// with at least one conflict window.
		reason string
	}{
		{"no placement", func(c *simulate.Config) { c.Placement = nil }, 4, ""},
		{"faults", func(c *simulate.Config) { c.Faults = faults.Rates{Crash: 0.1} }, 4, "random stream"},
		{"online profiling", func(c *simulate.Config) { c.OnlineProfiling = 0.2 }, 4, "online profiling"},
		{"single group", func(c *simulate.Config) {
			c.Placement = map[string][]int{names[0]: {0, 1}, names[1]: {1, 2}, names[2]: {2, 3}}
		}, 4, ""},
		{"overlapping via unplaced fn", func(c *simulate.Config) {
			delete(c.Placement, names[0]) // spans all nodes
		}, 4, ""},
		{"one worker", nil, 1, "workers=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simulate.Config{
				Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 3,
				Placement: map[string][]int{
					names[0]: {0, 1}, names[1]: {0, 1},
					names[2]: {2, 3}, names[3]: {2, 3},
				},
			}
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 5), dur, 16, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reason == "" {
				if !rep.Windowed() {
					t.Fatalf("unexpected serial fallback: %q", rep.SerialReason)
				}
				if rep.ConflictWindows == 0 {
					t.Fatalf("coupled placement never forced a conflict window: %+v", rep)
				}
			} else {
				if rep.Windowed() {
					t.Fatalf("expected serial fallback, got windowed run: %+v", rep)
				}
				if !strings.Contains(rep.SerialReason, tc.reason) {
					t.Errorf("reason %q does not mention %q", rep.SerialReason, tc.reason)
				}
			}
			serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, 5))
			if err != nil {
				t.Fatal(err)
			}
			if *sum != *serial {
				t.Fatal("windowed summary != serial streaming summary")
			}
			if sum.Count() == 0 {
				t.Error("run produced no requests")
			}
		})
	}
}

// TestWindowedCrossCheckOracle runs the lockstep serial oracle alongside the
// windowed engine; any divergence panics, so completing is the assertion.
func TestWindowedCrossCheckOracle(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := overlapConfig()
	cfg.CrossCheckWindows = true
	dur := 4 * time.Hour
	sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 29), dur, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Windowed() || rep.ParallelWindows == 0 {
		t.Fatalf("oracle test did not exercise parallel windows: %+v", rep)
	}
	serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, 29))
	if err != nil {
		t.Fatal(err)
	}
	if *sum != *serial {
		t.Fatal("cross-checked windowed summary != serial summary")
	}
}

// TestWindowedSerialFallbacks verifies every global coupling is detected and
// the fallback still equals a plain serial streaming run of the same config.
func TestWindowedSerialFallbacks(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	dur := 2 * time.Hour
	cases := []struct {
		name    string
		mut     func(*simulate.Config)
		windows int
		workers int
		reason  string
	}{
		{"faults", func(c *simulate.Config) { c.Faults = faults.Rates{Crash: 0.1, Outage: 0.01} }, 16, 4, "random stream"},
		{"online profiling", func(c *simulate.Config) { c.OnlineProfiling = 0.2 }, 16, 4, "online profiling"},
		{"fanout", func(c *simulate.Config) { c.Fanout = fanout.Config{Enabled: true} }, 16, 4, "fan-out"},
		{"health", func(c *simulate.Config) { c.Health = health.Config{Enabled: true} }, 16, 4, "health tracking"},
		{"one window", nil, 1, 4, "fewer than two windows"},
		{"one worker", nil, 16, 1, "workers=1"},
		{"single node", func(c *simulate.Config) { c.Nodes = 1; c.Placement = nil }, 16, 4, "single node"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := overlapConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 7), dur, tc.windows, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Windowed() {
				t.Fatalf("expected serial fallback, got windowed run: %+v", rep)
			}
			if !strings.Contains(rep.SerialReason, tc.reason) {
				t.Errorf("reason %q does not mention %q", rep.SerialReason, tc.reason)
			}
			serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, 7))
			if err != nil {
				t.Fatal(err)
			}
			if *sum != *serial {
				t.Fatal("fallback summary != serial streaming summary")
			}
			if sum.Count() == 0 {
				t.Error("fallback run produced no requests")
			}
		})
	}
}

// TestWindowedStress re-runs the windowed engine across seeds, window counts
// and worker counts on the conflicting placement — under -race this is the
// concurrency soak; every run must equal the serial engine exactly.
func TestWindowedStress(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := overlapConfig()
	dur := 3 * time.Hour
	for _, seed := range []int64{1, 2, 3} {
		serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []struct{ windows, workers int }{{8, 8}, {64, 2}, {200, 4}} {
			sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, seed),
				dur, shape.windows, shape.workers)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Windowed() {
				t.Fatalf("seed %d windows %d: serial fallback %q", seed, shape.windows, rep.SerialReason)
			}
			if *sum != *serial {
				t.Fatalf("seed %d windows=%d workers=%d: windowed != serial (count %d vs %d, mean %v vs %v)",
					seed, shape.windows, shape.workers, sum.Count(), serial.Count(), sum.MeanLatency(), serial.MeanLatency())
			}
		}
	}
}

// checkVerifyCounter checks transform verification counters aggregate
// across partition workers exactly as in a serial run.
func checkVerifyCounter(t *testing.T, cfg simulate.Config, fns []*simulate.Function, rates map[string]float64, seed int64) {
	t.Helper()
	cfg.VerifyTransforms = true
	const dur = 4 * time.Hour
	serialSim := simulate.New(cfg, fns)
	if _, err := serialSim.RunStream(workload.StreamPoissonRates(rates, dur, seed)); err != nil {
		t.Fatal(err)
	}
	_, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, seed), dur, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Windowed() || rep.ParallelWindows == 0 {
		t.Fatalf("verify run did not exercise parallel windows: %+v", rep)
	}
	if rep.TransformsVerified != serialSim.TransformsVerified {
		t.Errorf("verified transforms: windowed %d, serial %d", rep.TransformsVerified, serialSim.TransformsVerified)
	}
	if serialSim.TransformsVerified == 0 {
		t.Skip("workload produced no transforms to verify")
	}
}

// TestWindowedVerifyTransforms checks the verify counters on the
// bridge-connected placement.
func TestWindowedVerifyTransforms(t *testing.T) {
	names, rates, _ := overlapRates()
	checkVerifyCounter(t, overlapConfig(), testFunctions(t, names...), rates, 13)
}

// TestShardVerifyTransformsCounter checks the verify counters on two
// disjoint node groups, where every parallel window runs two shards.
func TestShardVerifyTransformsCounter(t *testing.T) {
	checkVerifyCounter(t, groupConfig(), testFunctions(t, groupNames...), mixedRates(groupNames), 19)
}
