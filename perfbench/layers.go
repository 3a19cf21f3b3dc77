package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/simulate"
)

// sampleEvery is the sampling period of per-call spans: one call in
// sampleEvery gets a span for viewing; every call is counted and timed.
const sampleEvery = 512

// timedPolicy wraps the policy under test and times each Serve call from
// outside the policy package. The simulator calls Serve from one goroutine
// at a time (Online holds its lock), but the counters are atomic so readers
// on other goroutines need no extra ordering.
type timedPolicy struct {
	inner  simulate.Policy
	calls  atomic.Int64
	busy   atomic.Int64 // nanoseconds
	rec    *spanRecorder
	parent atomic.Int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Serve(env *simulate.Env, n *simulate.Node, fn *simulate.Function, now time.Duration) (simulate.Decision, bool) {
	t := time.Now()
	d, ok := p.inner.Serve(env, n, fn, now)
	el := time.Since(t)
	p.busy.Add(int64(el))
	if p.calls.Add(1)%sampleEvery == 0 {
		p.rec.add("policy.serve", p.parent.Load(), -1, 0, t, el)
	}
	return d, ok
}

// snapshot returns the calls and busy time so far.
func (p *timedPolicy) snapshot() (int64, time.Duration) {
	return p.calls.Load(), time.Duration(p.busy.Load())
}

// Headers carrying a sampled request's span context from the load
// generator to the server side: the round-trip span's ID, the request's
// index in the trace and the client lane.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
	hdrLane = "X-Perfbench-Lane"
)

// timedHandler wraps the gateway's HTTP handler and times every
// /api/invoke call; a sampled request carries its span context in headers
// and gets a gateway.handler span under its round trip.
type timedHandler struct {
	next  http.Handler
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
	rec   *spanRecorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/api/invoke" {
		h.next.ServeHTTP(w, r)
		return
	}
	t := time.Now()
	h.next.ServeHTTP(w, r)
	el := time.Since(t)
	h.calls.Add(1)
	h.busy.Add(int64(el))
	if v := r.Header.Get(hdrSpan); v != "" {
		parent, _ := strconv.ParseInt(v, 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		lane, _ := strconv.Atoi(r.Header.Get(hdrLane))
		h.rec.add("gateway.handler", parent, req, lane, t, el)
	}
}

// virtualSummary is a run's virtual-time outcome: what the paper measures.
// It is comparable with ==, which the fixed-seed identity check uses.
type virtualSummary struct {
	Served, Dropped int
	// Mean is the mean latency; Tail the mean of the slowest 1%.
	Mean, Tail time.Duration
	// Init and Load are the mean sandbox-initialization and
	// model-acquisition components of the latency.
	Init, Load time.Duration
	Kinds      [8]int
}

// summarize derives the virtual summary from a collector.
func summarize(col *metrics.Collector) virtualSummary {
	b := col.MeanBreakdown()
	s := virtualSummary{
		Served:  col.Len(),
		Dropped: col.Faults.Dropped,
		Mean:    col.MeanLatency(),
		Tail:    tailMean(col, 99),
		Init:    b.Init,
		Load:    b.Load,
	}
	for k, n := range col.KindCounts() {
		if int(k) < len(s.Kinds) {
			s.Kinds[k] += n
		}
	}
	return s
}

// tailMean is the mean latency of the requests at or beyond the p-th
// percentile by nearest rank: the slowest ceil((100-p)% of n) records. Unlike
// a single order statistic it moves continuously with the input, where
// latencies take few distinct values.
func tailMean(col *metrics.Collector, p float64) time.Duration {
	recs := col.Records()
	n := len(recs)
	if n == 0 {
		return 0
	}
	k := n - int(math.Ceil(p/100*float64(n))) + 1
	t := col.Percentile(p)
	var sum time.Duration
	above := 0
	for _, r := range recs {
		if l := r.Latency(); l > t {
			sum += l
			above++
		}
	}
	return (sum + time.Duration(k-above)*t) / time.Duration(k)
}

// share returns the fraction of served requests of the given start kind.
func (s virtualSummary) share(k metrics.StartKind) float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.Kinds[k]) / float64(s.Served)
}

// mix formats the nonzero start-kind shares, as "warm=0.91 cold=0.02".
func (s virtualSummary) mix() string {
	var parts []string
	for k, n := range s.Kinds {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%v=%.4f", metrics.StartKind(k), s.share(metrics.StartKind(k))))
		}
	}
	return strings.Join(parts, " ")
}

// mixGap is the largest absolute difference in start-kind share between two
// runs of the same trace.
func mixGap(a, b virtualSummary) float64 {
	gap := 0.0
	for k := range a.Kinds {
		d := a.share(metrics.StartKind(k)) - b.share(metrics.StartKind(k))
		if d < 0 {
			d = -d
		}
		gap = max(gap, d)
	}
	return gap
}

// knownKind reports whether s names a start kind the metrics package
// defines.
func knownKind(s string) bool {
	for k := 0; k < 16; k++ {
		name := metrics.StartKind(k).String()
		if strings.HasPrefix(name, "startkind(") {
			return false
		}
		if name == s {
			return true
		}
	}
	return false
}

// recordsMB is the memory a collector's record slice holds.
func recordsMB(col *metrics.Collector) float64 {
	return float64(cap(col.Records())) * float64(unsafe.Sizeof(metrics.Record{})) / (1 << 20)
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeDelta is the Go runtime's work over an interval: collections, their
// total stop-the-world pause, bytes and objects allocated.
type runtimeDelta struct {
	gcCycles uint32
	gcPause  time.Duration
	alloc    uint64
	mallocs  uint64
}

type runtimeMark runtime.MemStats

func markRuntime() *runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (*runtimeMark)(&ms)
}

func (m *runtimeMark) since() runtimeDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return runtimeDelta{
		gcCycles: now.NumGC - m.NumGC,
		gcPause:  time.Duration(now.PauseTotalNs - m.PauseTotalNs),
		alloc:    now.TotalAlloc - m.TotalAlloc,
		mallocs:  now.Mallocs - m.Mallocs,
	}
}
