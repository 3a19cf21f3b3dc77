package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// serveSession is one serve-trace session: build the catalog, generate the
// trace, start a gateway on a loopback listener, register the models and
// wait for planning to quiesce (setup), serve the trace closed-loop, then
// summarize.
type serveSession struct {
	gen, setup time.Duration
	g          gatewayRun
	// fns, tr and cfg are kept for the traced run's online pass.
	fns []*simulate.Function
	tr  *workload.Trace
	cfg simulate.Config
}

func (s serveSession) wall() time.Duration { return s.setup + s.g.serve + s.g.summarize }

// runServeSession runs one session; rec is nil for an untraced session.
func runServeSession(sp *spec, seed int64, rec *spanRecorder) (serveSession, error) {
	var s serveSession
	root := rec.open("session", 0)
	defer rec.close(root)
	t0 := time.Now()
	setup := rec.open("setup", root)
	cs := rec.open("workload.catalog", setup)
	s.fns = sp.catalog()
	rec.close(cs)
	names := functionNames(s.fns)
	gs := rec.open("workload.gen", setup)
	tg := time.Now()
	s.tr = sp.trace(names, seed)
	s.gen = time.Since(tg)
	rec.close(gs)
	s.cfg = sp.clusterConfig(names, policy.Optimus{}, seed)
	pre := time.Since(t0)
	g, err := runGateway(s.fns, s.tr, s.cfg, rec != nil, rec, root, setup)
	if err != nil {
		return s, err
	}
	s.g = g
	s.setup = pre + g.setup
	return s, nil
}

// runServe runs sessions until the time budget is spent. As in a replay
// run, the first session is a warm-up that is checked but not measured; at
// least one session is measured, and a traced run alternates untraced and
// traced sessions after the warm-up and runs at least one of each.
func runServe(sp *spec, o options) (*outcome, error) {
	out := newOutcome()
	var rec *spanRecorder
	if o.trace {
		rec = newSpanRecorder()
		out.spans = rec
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var plain, traced []serveSession
	var walls []string
	// last is the latest traced session, whose inputs the online pass
	// reuses; other sessions drop theirs so they do not inflate the next
	// session's live heap.
	var last serveSession
	for i := 0; ; i++ {
		runtime.GC()
		t := time.Now()
		isTraced := o.trace && i%2 == 0 && i > 0
		var sessionRec *spanRecorder
		if isTraced {
			sessionRec = rec
		}
		s, err := runServeSession(sp, o.seed, sessionRec)
		if err != nil {
			return nil, err
		}
		if isTraced {
			last = s
		}
		s.fns, s.tr = nil, nil
		switch {
		case i == 0:
			out.params["requests"] = s.g.sent
			out.params["functions"] = s.g.models
			out.params["catalog_models"] = s.g.models
		case isTraced:
			traced = append(traced, s)
		default:
			plain = append(plain, s)
		}
		walls = append(walls, fmt.Sprintf("%.3f", s.wall().Seconds()))
		out.attempted += s.g.sent
		out.failed += s.g.failed
		out.check(fmt.Sprintf("session %d responses", i), checkServed(s.g.sent, s.g.failed, s.g.statsRequests, s.g.failures))
		enough := len(plain) > 0 && (!o.trace || len(traced) > 0)
		if enough && time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	out.params["conns"] = conns
	out.params["sessions"] = 1 + len(plain) + len(traced)
	out.note("session walls in s, warm-up first: %s", strings.Join(walls, " "))

	if !o.trace {
		setServeEndToEnd(out, plain)
		return out, nil
	}
	setServeLayers(out, traced)
	out.set("trace.overhead_s", medianOf(traced, func(s serveSession) float64 { return s.wall().Seconds() })-
		medianOf(plain, func(s serveSession) float64 { return s.wall().Seconds() }))
	out.note("trace.overhead_s = median traced session wall (%d) - median untraced session wall (%d), warm-up session excluded", len(traced), len(plain))
	return out, serveOnlinePass(last, rec, out)
}

// setServeEndToEnd reports medians over the measured untraced sessions.
func setServeEndToEnd(out *outcome, ss []serveSession) {
	m := func(f func(s serveSession) float64) float64 { return medianOf(ss, f) }
	out.set("setup_s", m(func(s serveSession) float64 { return s.setup.Seconds() }))
	out.set("wall_s", m(func(s serveSession) float64 { return s.wall().Seconds() }))
	out.set("req_per_s", m(func(s serveSession) float64 { return float64(s.g.sent) / s.g.serve.Seconds() }))
	out.set("latency_p50_ms", m(func(s serveSession) float64 { return ms(s.g.p50) }))
	out.set("latency_p999_ms", m(func(s serveSession) float64 { return ms(s.g.p999) }))
	out.set("live_heap_mb", m(func(s serveSession) float64 { return s.g.liveHeapMB }))
	out.set("sim_mean_latency_ms", m(func(s serveSession) float64 { return ms(s.g.sum.Mean) }))
	out.set("sim_tail_latency_ms", m(func(s serveSession) float64 { return ms(s.g.sum.Tail) }))
	out.set("cold_start_fraction", m(func(s serveSession) float64 { return s.g.sum.share(metrics.StartCold) }))
	out.note("%d measured sessions of %d requests on %d closed-loop connections after one warm-up session; latency percentiles are wall-clock round trips, nearest-rank per session (p99.9 has %d samples beyond it), median over sessions",
		len(ss), ss[0].g.sent, conns, ss[0].g.sent/1000)
}

// setServeLayers reports medians over the traced sessions.
func setServeLayers(out *outcome, ss []serveSession) {
	m := func(f func(s serveSession) float64) float64 { return medianOf(ss, f) }
	out.set("workload.gen_s", m(func(s serveSession) float64 { return s.gen.Seconds() }))
	out.set("planner.planned", m(func(s serveSession) float64 { return float64(s.g.layers.planned) }))
	out.set("planner.plan_busy_s", m(func(s serveSession) float64 { return s.g.layers.planBusy.Seconds() }))
	out.set("planner.cache_hit_ratio", m(func(s serveSession) float64 { return ratio(s.g.layers.hits, s.g.layers.hits+s.g.layers.misses) }))
	out.set("planner.register_precompute_pairs_per_s", m(func(s serveSession) float64 { return float64(s.g.precomputed) / s.g.precompute.Seconds() }))
	out.set("policy.serve_calls", m(func(s serveSession) float64 { return float64(s.g.layers.serveCalls) }))
	out.set("policy.serve_busy_s", m(func(s serveSession) float64 { return s.g.layers.serveBusy.Seconds() }))
	out.set("policy.serve_self_s", m(func(s serveSession) float64 { return (s.g.layers.serveBusy - s.g.layers.servePlan).Seconds() }))
	out.set("simulate.init_ms", m(func(s serveSession) float64 { return ms(s.g.sum.Init) }))
	out.set("simulate.load_ms", m(func(s serveSession) float64 { return ms(s.g.sum.Load) }))
	out.set("metrics.summarize_s", m(func(s serveSession) float64 { return s.g.summarize.Seconds() }))
	out.set("metrics.records_mb", m(func(s serveSession) float64 { return s.g.recordsMB }))
	out.set("runtime.gc_cycles", m(func(s serveSession) float64 { return float64(s.g.layers.rt.gcCycles) }))
	out.set("runtime.gc_pause_ms", m(func(s serveSession) float64 { return ms(s.g.layers.rt.gcPause) }))
	out.set("runtime.alloc_mb", m(func(s serveSession) float64 { return float64(s.g.layers.rt.alloc) / (1 << 20) }))
	out.set("gateway.handler_us", m(func(s serveSession) float64 { return gatewayHandlerUS(s.g) }))
	out.set("gateway.transport_us", m(func(s serveSession) float64 { return us(s.g.meanRoundTrip) - gatewayHandlerUS(s.g) }))
	out.set("gateway.register_ms", m(func(s serveSession) float64 { return gatewayRegisterMS(s.g) }))
	out.note("per-layer serve metrics are medians over %d traced sessions; planner.* cover the whole session (its planning is the registration precompute), runtime.* the serving phase", len(ss))
}

// serveOnlinePass drives the session's trace straight into Online.Invoke
// (after precomputing the catalog's plans, as registration does) and
// replays it through the event loop: the first gives the simulate layer's
// cost on the serving path, the second the semantic gap between serving
// and replay.
func serveOnlinePass(s serveSession, rec *spanRecorder, out *outcome) error {
	root := rec.open("online-pass", 0)
	defer rec.close(root)
	direct, err := invokeDirect(s.fns, s.tr, s.cfg, rec, root)
	if err != nil {
		return err
	}
	n := float64(s.tr.Len())
	out.set("simulate.invoke_us", us(direct.busy)/n)
	out.set("simulate.engine_self_s", (direct.busy - direct.serveBusy).Seconds())
	out.set("simulate.allocs_per_req", float64(direct.mallocs)/n)
	rep, err := replayOnce(s.fns, s.tr, s.cfg, rec, root)
	if err != nil {
		return err
	}
	out.set("simulate.mix_gap", mixGap(s.g.sum, rep))
	out.note("start-kind mix: HTTP session %s; Online.Invoke %s; replay %s", s.g.sum.mix(), direct.sum.mix(), rep.mix())
	out.note("online pass: the %d-request trace driven into Online.Invoke (simulate.invoke_us, engine_self_s, allocs_per_req) and replayed; simulate.mix_gap compares the HTTP session's start-kind shares with the replay's", s.tr.Len())
	out.note("planner.register_precompute_pairs_per_s: %d pairs planned from the first registration to the planning quiesce, %.3fs with the registration round trips it overlaps", s.g.precomputed, s.g.precompute.Seconds())
	return nil
}

// gatewayHandlerUS is a traced gateway run's mean /api/invoke handler time;
// the rest of the mean round trip is transport (client, HTTP stack and
// loopback).
func gatewayHandlerUS(g gatewayRun) float64 {
	return us(g.layers.handlerBusy) / float64(max(g.layers.handlerCalls, 1))
}

// gatewayRegisterMS is the mean registration round trip per model.
func gatewayRegisterMS(g gatewayRun) float64 { return ms(g.register) / float64(max(g.models, 1)) }

// directRun is Online.Invoke driven straight from a trace.
type directRun struct {
	busy time.Duration
	sum  virtualSummary
	// serveBusy is the policy's share of busy; mallocs the allocations.
	serveBusy time.Duration
	mallocs   uint64
}

// invokeDirect serves tr by calling Online.Invoke at each arrival, with no
// HTTP in between. The catalog's plans are made first, as the gateway's
// registration does.
func invokeDirect(fns []*simulate.Function, tr *workload.Trace, cfg simulate.Config, rec *spanRecorder, parent int64) (directRun, error) {
	var r directRun
	tp := &timedPolicy{inner: cfg.Policy, rec: rec}
	cfg.Policy = tp
	on := simulate.NewOnline(cfg, fns)
	env := on.Env()
	planner.NewPrecomputer(env.Planner, env.Plans, 0).PrecomputeAll(distinctModels(fns))
	sp := rec.open("simulate.invoke", parent)
	tp.parent.Store(sp)
	mark := markRuntime()
	t := time.Now()
	for _, q := range tr.Requests {
		if _, err := on.Invoke(q.Function, q.At); err != nil {
			return r, fmt.Errorf("online invoke: %w", err)
		}
	}
	r.busy = time.Since(t)
	r.mallocs = mark.since().mallocs
	rec.close(sp)
	_, r.serveBusy = tp.snapshot()
	on.ReadCollector(func(col *metrics.Collector) { r.sum = summarize(col) })
	return r, nil
}

// replayOnce replays tr through the event loop and returns its summary.
func replayOnce(fns []*simulate.Function, tr *workload.Trace, cfg simulate.Config, rec *spanRecorder, parent int64) (virtualSummary, error) {
	sp := rec.open("simulate.run", parent)
	defer rec.close(sp)
	col, err := simulate.New(cfg, fns).Run(tr)
	if err != nil {
		return virtualSummary{}, fmt.Errorf("replay: %w", err)
	}
	return summarize(col), nil
}
