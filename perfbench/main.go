// Command perfbench is the repository's benchmark: one workload per run,
// timed end to end, or traced layer by layer with --trace 1.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload serve-trace --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// environment block, the output checks and a human-readable table. The
// process exits non-zero when any output check fails. See LAYERS.md for
// what each metric measures and which end-to-end metric each layer metric
// should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p999_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"sim_mean_latency_ms", "ms"},
	{"sim_tail_latency_ms", "ms"},
	{"cold_start_fraction", "fraction"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// modules on the default path.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"planner.planned", "count"},
	{"planner.plan_busy_s", "s"},
	{"planner.cache_hit_ratio", "fraction"},
	{"planner.register_precompute_pairs_per_s", "1/s"},
	{"policy.serve_calls", "count"},
	{"policy.serve_busy_s", "s"},
	{"policy.serve_self_s", "s"},
	{"simulate.engine_self_s", "s"},
	{"simulate.allocs_per_req", "allocs/req"},
	{"simulate.invoke_us", "us"},
	{"simulate.init_ms", "ms"},
	{"simulate.load_ms", "ms"},
	{"simulate.mix_gap", "fraction"},
	{"metrics.summarize_s", "s"},
	{"metrics.records_mb", "MB"},
	{"gateway.handler_us", "us"},
	{"gateway.transport_us", "us"},
	{"gateway.register_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	commit   string
	out      string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	// notes are printed with the report: sample counts and definitions.
	notes  []string
	params map[string]any
	spans  *spanRecorder
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), params: make(map[string]any)}
}

// set records a metric under its defined unit.
func (o *outcome) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				o.metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	o.failures = append(o.failures, "internal: metric "+name+" is not defined")
}

// check records a failed output check.
func (o *outcome) check(what string, err error) {
	if err != nil {
		o.failures = append(o.failures, what+": "+err.Error())
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := environment(o, out)
	report(os.Stdout, env, out)
	if err := writeArtifacts(o, env, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(out.failures) > 0 {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measurement time budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer measurement")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the code under test, for the environment block")
	fs.StringVar(&o.out, "out", "", "directory for the result file and the Chrome trace (none if empty)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// run measures one workload.
func run(o options) (*outcome, error) {
	sp, err := specFor(o.workload, o.quick)
	if err != nil {
		return nil, err
	}
	var out *outcome
	if sp.kind == "serve" {
		out, err = runServe(sp, o)
	} else {
		out, err = runReplay(sp, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	for k, v := range sp.params() {
		out.params[k] = v
	}
	return out, nil
}

// envBlock identifies where and on what a result was measured.
type envBlock struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	OSArch     string         `json:"os_arch"`
	Commit     string         `json:"commit"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Quick      bool           `json:"quick,omitempty"`
	Params     map[string]any `json:"params"`
}

func environment(o options, out *outcome) envBlock {
	return envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     o.commit,
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Quick:      o.quick,
		Params:     out.params,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the environment, the checks, the metrics and the notes.
func report(w io.Writer, env envBlock, out *outcome) {
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	if len(out.failures) == 0 {
		fmt.Fprintf(w, "checks: all passed (%d attempted, %d failed)\n", out.attempted, out.failed)
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "check FAILED: %s\n", f)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if out.spans != nil {
		fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
		for _, s := range out.spans.selfTimes() {
			fmt.Fprintf(w, "%-24s %8d %12.6f %12.6f\n", s.Name, s.Count, s.Total.Seconds(), s.Self.Seconds())
		}
	}
}

// writeArtifacts writes the result file and, for a traced run, the Chrome
// trace into the output directory.
func writeArtifacts(o options, env envBlock, out *outcome) error {
	if o.out == "" {
		return nil
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if o.trace {
		stem += "-traced"
	}
	data, err := json.MarshalIndent(map[string]any{
		"env": env, "metrics": out.metrics, "failures": out.failures, "notes": out.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result-"+stem+".json"), data, 0o644); err != nil {
		return err
	}
	if out.spans == nil {
		return nil
	}
	return out.spans.writeChrome(filepath.Join(o.out, "trace-"+stem+".json"), env)
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is median over a projection of samples.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
