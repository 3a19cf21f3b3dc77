package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// conns is the number of closed-loop client connections. It is fixed, not
// taken from the machine, so the offered traffic, and with it the
// interleaving behind the virtual metrics, is the same everywhere.
const conns = 2

// gatewayRun is one gateway serving a trace over a loopback listener:
// register every function through POST /api/models, wait for planning to
// quiesce, then POST every request to /api/invoke closed-loop.
type gatewayRun struct {
	// setup covers server start, registration and the planning quiesce;
	// register is the registration round trips alone, precompute the time
	// from the first registration to the quiesce returning (registration
	// enqueues the pairs, so the two overlap).
	setup, register, precompute time.Duration
	models, precomputed         int
	serve, summarize            time.Duration
	sent, failed                int
	failures                    []string
	statsRequests               int
	p50, p999                   time.Duration
	meanRoundTrip               time.Duration
	sum                         virtualSummary
	liveHeapMB, recordsMB       float64
	layers                      *gatewayLayers
}

// gatewayLayers is what a traced gateway run measures per layer.
type gatewayLayers struct {
	handlerCalls          int64
	handlerBusy           time.Duration
	serveCalls            int64
	serveBusy, servePlan  time.Duration
	planned, hits, misses int
	planBusy              time.Duration
	rt                    runtimeDelta
}

// traceClock is the gateway's clock: the latest trace arrival dispatched.
type traceClock struct{ at atomic.Int64 }

func (c *traceClock) now() time.Duration { return time.Duration(c.at.Load()) }

func (c *traceClock) advance(at time.Duration) {
	for {
		cur := c.at.Load()
		if int64(at) <= cur || c.at.CompareAndSwap(cur, int64(at)) {
			return
		}
	}
}

// runGateway serves tr through a fresh in-process gateway, closed-loop on
// conns client connections. Registration and the planning quiesce are spanned under setupSpan, which runGateway closes
// when setup ends; serving and summarizing are spanned under root.
func runGateway(fns []*simulate.Function, tr *workload.Trace, cfg simulate.Config, traced bool, rec *spanRecorder, root, setupSpan int64) (g gatewayRun, err error) {
	t0 := time.Now()
	var tp *timedPolicy
	if traced {
		tp = &timedPolicy{inner: cfg.Policy, rec: rec}
		cfg.Policy = tp
	}
	var clock traceClock
	gw := gateway.New(gateway.Config{Cluster: cfg, Now: clock.now})
	var handler http.Handler = gw.Handler()
	var th *timedHandler
	if traced {
		th = &timedHandler{next: handler, rec: rec}
		handler = th
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return g, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	defer func() {
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := srv.Shutdown(ctx); serr != nil && err == nil {
			err = fmt.Errorf("shutting down gateway: %w", serr)
		}
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = fmt.Errorf("gateway server: %w", serr)
		}
	}()
	base := "http://" + ln.Addr().String()

	rs := rec.open("gateway.register", setupSpan)
	treg := time.Now()
	for _, f := range fns {
		if err := register(client, base, f); err != nil {
			return g, err
		}
	}
	g.register = time.Since(treg)
	g.models = len(fns)
	rec.close(rs)
	qs := rec.open("planner.quiesce", setupSpan)
	gw.PlanningQuiesce()
	rec.close(qs)
	rec.close(setupSpan)
	g.precompute = time.Since(treg)
	g.precomputed = gw.Precomputer().Stats().Completed
	g.setup = time.Since(t0)

	plans := gw.Env().Plans
	planBefore := plans.PlanTimes().Total
	var mark *runtimeMark
	if traced {
		mark = markRuntime()
	}
	ss := rec.open("gateway.serve", root)
	lg := &loadGen{client: client, url: base + "/api/invoke", reqs: tr.Requests, clock: &clock, rec: rec, parent: ss}
	if tp != nil {
		tp.parent.Store(ss)
	}
	ts := time.Now()
	lats := lg.run(conns)
	g.serve = time.Since(ts)
	rec.close(ss)
	if traced {
		rt := mark.since()
		calls, busy := tp.snapshot()
		ct, pt := plans.Counters(), plans.PlanTimes()
		g.layers = &gatewayLayers{
			handlerCalls: th.calls.Load(), handlerBusy: time.Duration(th.busy.Load()),
			serveCalls: calls, serveBusy: busy, servePlan: pt.Total - planBefore,
			planned: ct.Planned, hits: ct.Hits, misses: ct.Misses, planBusy: pt.Total,
			rt: rt,
		}
	}
	g.sent, g.failed, g.failures = len(tr.Requests), lg.failed, lg.failures
	if g.statsRequests, err = statsRequests(client, base); err != nil {
		return g, err
	}

	hs := rec.open("runtime.gc", root)
	g.liveHeapMB = liveHeapMB()
	rec.close(hs)
	sum := rec.open("metrics.summarize", root)
	tsum := time.Now()
	sortDurations(lats)
	g.p50, g.p999 = nearestRank(lats, 50), nearestRank(lats, 99.9)
	var total time.Duration
	for _, d := range lats {
		total += d
	}
	g.meanRoundTrip = total / time.Duration(max(len(lats), 1))
	gw.Online().ReadCollector(func(col *metrics.Collector) {
		g.sum = summarize(col)
		g.recordsMB = recordsMB(col)
	})
	g.summarize = time.Since(tsum)
	rec.close(sum)
	return g, nil
}

// register POSTs f's model, renamed to the function's name, to
// /api/models and requires 201 Created.
func register(client *http.Client, base string, f *simulate.Function) error {
	m := f.Model
	if m.Name != f.Name {
		m = m.Clone()
		m.Name = f.Name
	}
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("encoding model %s: %w", f.Name, err)
	}
	resp, err := client.Post(base+"/api/models", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("registering %s: %w", f.Name, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registering %s: status %d: %s", f.Name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// statsRequests reads the request count from GET /api/stats.
func statsRequests(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/api/stats")
	if err != nil {
		return 0, fmt.Errorf("reading stats: %w", err)
	}
	defer resp.Body.Close()
	var st struct {
		Requests int `json:"requests"`
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("reading stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding stats: %w", err)
	}
	return st.Requests, nil
}

// loadGen POSTs the trace's requests closed-loop: each connection sends its
// next request only after the previous reply, taking requests in trace
// order from a shared cursor and advancing the trace clock to each one's
// arrival before sending it.
type loadGen struct {
	client *http.Client
	url    string
	reqs   []workload.Request
	clock  *traceClock
	rec    *spanRecorder
	parent int64

	next     atomic.Int64
	mu       sync.Mutex
	failed   int
	failures []string
}

// run drives the load over conns connections and returns every request's
// round-trip time.
func (l *loadGen) run(conns int) []time.Duration {
	bodies := make(map[string][]byte)
	for _, r := range l.reqs {
		if _, ok := bodies[r.Function]; !ok {
			bodies[r.Function] = []byte(`{"model":` + strconv.Quote(r.Function) + `}`)
		}
	}
	per := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, len(l.reqs)/conns+1)
			for {
				i := int(l.next.Add(1) - 1)
				if i >= len(l.reqs) {
					break
				}
				r := l.reqs[i]
				l.clock.advance(r.At)
				var sid int64
				if l.rec != nil && i%sampleEvery == 0 {
					sid = l.rec.openSampled("gateway.roundtrip", l.parent, int64(i), c+1)
				}
				t := time.Now()
				err := l.invoke(bodies[r.Function], sid, i, c+1)
				lats = append(lats, time.Since(t))
				l.rec.close(sid)
				if err != nil {
					l.fail(fmt.Sprintf("request %d (%s): %v", i, r.Function, err))
				}
			}
			per[c] = lats
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// invoke sends one request and checks for 200 OK with a known start kind.
func (l *loadGen) invoke(body []byte, sid int64, i, lane int) error {
	req, err := http.NewRequest(http.MethodPost, l.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if sid != 0 {
		req.Header.Set(hdrSpan, strconv.FormatInt(sid, 10))
		req.Header.Set(hdrReq, strconv.Itoa(i))
		req.Header.Set(hdrLane, strconv.Itoa(lane))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Kind string `json:"start_kind"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return checkResponse(resp.StatusCode, out.Kind, derr)
}

func (l *loadGen) fail(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, msg)
	}
}
