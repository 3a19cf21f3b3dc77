package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/simulate"
)

// replayJob is one generate → replay → summarize pass of a replay
// workload: build the catalog, generate the trace, replay it serially with
// records kept, then summarize the records.
type replayJob struct {
	gen, setup, replay, summarize time.Duration
	arrivals, functions, models   int
	sum                           virtualSummary
	liveHeapMB                    float64
	layers                        *replayLayers
}

func (j replayJob) wall() time.Duration { return j.setup + j.replay + j.summarize }

// replayLayers is what a traced replay job measures per layer.
type replayLayers struct {
	serveCalls            int64
	serveBusy             time.Duration
	planned, hits, misses int
	planBusy              time.Duration
	recordsMB             float64
	rt                    runtimeDelta
}

// runReplayJob runs one job; rec is nil for an untraced job.
func runReplayJob(sp *spec, seed int64, rec *spanRecorder) (replayJob, error) {
	var j replayJob
	root := rec.open("job", 0)
	defer rec.close(root)
	t0 := time.Now()
	setup := rec.open("setup", root)
	cs := rec.open("workload.catalog", setup)
	fns := sp.catalog()
	rec.close(cs)
	names := functionNames(fns)
	gs := rec.open("workload.gen", setup)
	tg := time.Now()
	tr := sp.trace(names, seed)
	j.gen = time.Since(tg)
	rec.close(gs)
	j.setup = time.Since(t0)
	j.functions, j.models = len(fns), len(distinctModels(fns))
	rec.close(setup)
	j.arrivals = tr.Len()

	var pol simulate.Policy = policy.Optimus{}
	var tp *timedPolicy
	var mark *runtimeMark
	if rec != nil {
		tp = &timedPolicy{inner: pol, rec: rec}
		pol = tp
		mark = markRuntime()
	}
	rs := rec.open("simulate.run", root)
	if tp != nil {
		tp.parent.Store(rs)
	}
	t1 := time.Now()
	sim := simulate.New(sp.clusterConfig(names, pol, seed), fns)
	col, err := sim.Run(tr)
	j.replay = time.Since(t1)
	rec.close(rs)
	if err != nil {
		return j, fmt.Errorf("replay: %w", err)
	}
	var rt runtimeDelta
	if mark != nil {
		rt = mark.since()
	}

	hs := rec.open("runtime.gc", root)
	j.liveHeapMB = liveHeapMB()
	rec.close(hs)
	ss := rec.open("metrics.summarize", root)
	t2 := time.Now()
	j.sum = summarize(col)
	j.summarize = time.Since(t2)
	rec.close(ss)

	if tp != nil {
		calls, busy := tp.snapshot()
		plans := sim.Env().Plans
		ct := plans.Counters()
		j.layers = &replayLayers{
			serveCalls: calls, serveBusy: busy,
			planned: ct.Planned, hits: ct.Hits, misses: ct.Misses,
			planBusy:  plans.PlanTimes().Total,
			recordsMB: recordsMB(col),
			rt:        rt,
		}
	}
	runtime.KeepAlive(tr)
	return j, nil
}

// runReplay runs replay jobs until the time budget is spent. The first job
// is a warm-up: it is checked, and it is the reference for the fixed-seed
// identity check, but it is not measured, because it also grows the heap
// from zero. At least one job is measured; a traced run alternates
// untraced and traced jobs after the warm-up and runs at least one of each,
// the traced ones giving the per-layer metrics and the difference of the
// two medians the tracing overhead.
func runReplay(sp *spec, o options) (*outcome, error) {
	out := newOutcome()
	var rec *spanRecorder
	if o.trace {
		rec = newSpanRecorder()
		out.spans = rec
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var warm replayJob
	var plain, traced []replayJob
	var walls []string
	for i := 0; ; i++ {
		runtime.GC()
		t := time.Now()
		isTraced := o.trace && i%2 == 0 && i > 0
		var jobRec *spanRecorder
		if isTraced {
			jobRec = rec
		}
		j, err := runReplayJob(sp, o.seed, jobRec)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0:
			warm = j
		case isTraced:
			traced = append(traced, j)
		default:
			plain = append(plain, j)
		}
		walls = append(walls, fmt.Sprintf("%.3f", j.wall().Seconds()))
		out.attempted += j.arrivals
		out.failed += j.sum.Dropped
		out.check(fmt.Sprintf("job %d accounting", i), checkAccounting(j.arrivals, j.sum))
		out.check(fmt.Sprintf("job %d fixed-seed summary", i), checkSameSummary(warm.sum, j.sum))
		enough := len(plain) > 0 && (!o.trace || len(traced) > 0)
		if enough && time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	out.params["requests"] = warm.arrivals
	out.params["functions"] = warm.functions
	out.params["catalog_models"] = warm.models
	out.params["jobs"] = 1 + len(plain) + len(traced)
	out.note("job walls in s, warm-up first: %s", strings.Join(walls, " "))

	if !o.trace {
		setReplayEndToEnd(out, plain)
		return out, nil
	}
	setReplayLayers(out, traced)
	out.set("trace.overhead_s", medianOf(traced, func(j replayJob) float64 { return j.wall().Seconds() })-
		medianOf(plain, func(j replayJob) float64 { return j.wall().Seconds() }))
	out.note("trace.overhead_s = median traced job wall (%d jobs) - median untraced job wall (%d jobs), warm-up job excluded", len(traced), len(plain))
	setServingOnly(out)
	return out, nil
}

// setReplayEndToEnd reports medians over the measured untraced jobs. A
// replay's user waits for a whole job, so the latency percentiles are over
// job walls: the p50 tracks wall_s and the p99.9 of so few is the slowest
// measured job.
func setReplayEndToEnd(out *outcome, jobs []replayJob) {
	walls := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		walls[i] = j.wall()
	}
	sortDurations(walls)
	s := jobs[0].sum
	out.set("setup_s", medianOf(jobs, func(j replayJob) float64 { return j.setup.Seconds() }))
	out.set("wall_s", medianOf(jobs, func(j replayJob) float64 { return j.wall().Seconds() }))
	out.set("req_per_s", medianOf(jobs, func(j replayJob) float64 { return float64(j.arrivals) / j.replay.Seconds() }))
	out.set("latency_p50_ms", ms(nearestRank(walls, 50)))
	out.set("latency_p999_ms", ms(nearestRank(walls, 99.9)))
	out.set("live_heap_mb", medianOf(jobs, func(j replayJob) float64 { return j.liveHeapMB }))
	out.set("sim_mean_latency_ms", ms(s.Mean))
	out.set("sim_tail_latency_ms", ms(s.Tail))
	out.set("cold_start_fraction", s.share(metrics.StartCold))
	out.note("%d measured jobs of %d requests after one warm-up job; latency_p50_ms/latency_p999_ms are nearest-rank over the %d job walls (the p99.9 of so few is their maximum)",
		len(jobs), jobs[0].arrivals, len(jobs))
}

// setReplayLayers reports medians over the traced jobs.
func setReplayLayers(out *outcome, jobs []replayJob) {
	l := func(f func(j replayJob) float64) float64 { return medianOf(jobs, f) }
	out.set("workload.gen_s", l(func(j replayJob) float64 { return j.gen.Seconds() }))
	out.set("planner.planned", l(func(j replayJob) float64 { return float64(j.layers.planned) }))
	out.set("planner.plan_busy_s", l(func(j replayJob) float64 { return j.layers.planBusy.Seconds() }))
	out.set("planner.cache_hit_ratio", l(func(j replayJob) float64 { return ratio(j.layers.hits, j.layers.hits+j.layers.misses) }))
	out.set("policy.serve_calls", l(func(j replayJob) float64 { return float64(j.layers.serveCalls) }))
	out.set("policy.serve_busy_s", l(func(j replayJob) float64 { return j.layers.serveBusy.Seconds() }))
	// Every plan a replay computes is computed inside a Serve call.
	out.set("policy.serve_self_s", l(func(j replayJob) float64 { return (j.layers.serveBusy - j.layers.planBusy).Seconds() }))
	out.set("simulate.engine_self_s", l(func(j replayJob) float64 { return (j.replay - j.layers.serveBusy).Seconds() }))
	out.set("simulate.allocs_per_req", l(func(j replayJob) float64 { return float64(j.layers.rt.mallocs) / float64(j.arrivals) }))
	out.set("simulate.init_ms", ms(jobs[0].sum.Init))
	out.set("simulate.load_ms", ms(jobs[0].sum.Load))
	out.set("metrics.summarize_s", l(func(j replayJob) float64 { return j.summarize.Seconds() }))
	out.set("metrics.records_mb", l(func(j replayJob) float64 { return j.layers.recordsMB }))
	out.set("runtime.gc_cycles", l(func(j replayJob) float64 { return float64(j.layers.rt.gcCycles) }))
	out.set("runtime.gc_pause_ms", l(func(j replayJob) float64 { return ms(j.layers.rt.gcPause) }))
	out.set("runtime.alloc_mb", l(func(j replayJob) float64 { return float64(j.layers.rt.alloc) / (1 << 20) }))
	out.note("per-layer replay metrics are medians over %d traced jobs; runtime.* and allocs cover the replay phase", len(jobs))
}

// servingOnly are the per-layer metrics of the serving pipeline alone: the
// gateway, the registration precompute, Online.Invoke driven directly and
// the start-kind gap between serving and replay.
var servingOnly = []string{
	"planner.register_precompute_pairs_per_s",
	"simulate.invoke_us",
	"simulate.mix_gap",
	"gateway.handler_us",
	"gateway.transport_us",
	"gateway.register_ms",
}

// setServingOnly reports the serving-only metrics of a replay workload as 0:
// a traced run must emit every per-layer metric, and these layers take no
// time on the replay pipeline.
func setServingOnly(out *outcome) {
	for _, n := range servingOnly {
		out.set(n, 0)
	}
	out.note("%s are 0: they are not on the replay pipeline and are measured on serve-trace", strings.Join(servingOnly, ", "))
}

// distinctModels returns the catalog's distinct models, in catalog order.
func distinctModels(fns []*simulate.Function) []*model.Graph {
	seen := make(map[*model.Graph]bool)
	var out []*model.Graph
	for _, f := range fns {
		if !seen[f.Model] {
			seen[f.Model] = true
			out = append(out, f.Model)
		}
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
