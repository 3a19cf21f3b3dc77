package simulate

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/supervisor"
)

// ErrRequestDropped marks a request abandoned after exhausting its
// crash-retry budget; callers can map it to a retryable service error.
var ErrRequestDropped = errors.New("request dropped after repeated crashes")

// Online serves invocations one at a time against live cluster state, for
// interactive use (the REST gateway) as opposed to trace replay. Callers
// supply a monotonically non-decreasing `now`; Online never sleeps — if no
// container is free the request's wait time is computed from the earliest
// completion.
//
// Online is safe for concurrent use.
type Online struct {
	mu  sync.Mutex
	sim *Simulator
}

// NewOnline builds an online server over the given functions.
func NewOnline(cfg Config, fns []*Function) *Online {
	return &Online{sim: New(cfg, fns)}
}

// AddFunction registers a new function at runtime. Registering a name twice
// replaces the model (a redeploy).
func (o *Online) AddFunction(f *Function) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sim.fns[f.Name] = f
}

// RemoveFunction unregisters a function; its containers are left to expire
// through keep-alive.
func (o *Online) RemoveFunction(name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.sim.fns, name)
}

// Snapshot returns a deep copy of the cluster's node/container state at
// `now`: callers may read it freely while Invoke keeps mutating the live
// cluster under the lock.
func (o *Online) Snapshot(now time.Duration) []*Node {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Node, len(o.sim.nodes))
	for i, n := range o.sim.nodes {
		cp := &Node{ID: n.ID, Capacity: n.Capacity, MemoryMB: n.MemoryMB, DownUntil: n.DownUntil}
		cp.Containers = make([]*Container, len(n.Containers))
		for j, c := range n.Containers {
			cc := *c
			cc.serving, cc.hasServing = inflight{}, false
			cc.idxState = idxNone
			cp.Containers[j] = &cc
		}
		out[i] = cp
	}
	return out
}

// Functions returns the registered function names, sorted: callers fan the
// list into reports and API responses, and map-iteration order would leak
// per-run nondeterminism into them.
func (o *Online) Functions() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.sim.fns))
	for n := range o.sim.fns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Function returns a registered function by name.
func (o *Online) Function(name string) (*Function, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.sim.fns[name]
	return f, ok
}

// Env exposes the policy environment (planner, plan cache).
func (o *Online) Env() *Env { return o.sim.env }

// Collector returns the accumulated request metrics. The collector is
// mutated by concurrent Invoke calls; readers racing with invocations
// should use ReadCollector instead.
func (o *Online) Collector() *metrics.Collector { return o.sim.Collector() }

// ReadCollector runs f with the collector under the server lock, so
// aggregate reads are consistent with concurrent Invoke calls. f must not
// retain the collector.
func (o *Online) ReadCollector(f func(*metrics.Collector)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f(&o.sim.collector)
}

// Invoke serves one request for the named function arriving at `now`
// (an offset from server start) and returns its record. The serve decision
// is the trace engine's own (Simulator.decide); Online differs only in
// never queueing. If every container is busy, the request reserves the
// earliest completion on its routed node, and a container crash retries the
// request inline from the crash point on a freshly routed node. A request
// that exhausts its retry budget returns an error.
func (o *Online) Invoke(name string, now time.Duration) (metrics.Record, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.sim
	fn, ok := s.fns[name]
	if !ok {
		return metrics.Record{}, fmt.Errorf("simulate: unknown function %q", name)
	}
	if now < s.clock {
		now = s.clock // clock is monotone
	}
	s.clock = now
	fr := s.rt(fn)
	s.admit(fr, now)
	node := s.route(fn)

	start := now
	retries := 0
	for {
		if node.Down(start) {
			// Every candidate node is out: wait for the first recovery.
			for _, n := range s.candidates(fn) {
				if n.DownUntil < node.DownUntil {
					node = n
				}
			}
			start = node.DownUntil
		}
		d, c, compute, ok := s.decide(node, fr, start)
		if !ok {
			// Everything busy: jump to the node's earliest completion.
			next := time.Duration(-1)
			for _, ct := range node.Containers {
				if ct.BusyUntil > start && (next < 0 || ct.BusyUntil < next) {
					next = ct.BusyUntil
				}
			}
			if next < 0 {
				return metrics.Record{}, fmt.Errorf("simulate: node %d cannot serve %q", node.ID, name)
			}
			start = next
			continue
		}
		service := d.Init + d.Load + compute
		if s.inj.Fire(faults.Crash) {
			// The container dies mid-request; retry from the crash point on
			// a freshly routed node, or give up once the budget is spent.
			c.dead = true
			node.Remove(c)
			s.collector.Faults.Crashes++
			s.health.ObserveFailure(node.ID, start)
			if retries >= s.cfg.MaxRetries {
				s.collector.Faults.Dropped++
				return metrics.Record{}, fmt.Errorf("simulate: %q failed %d attempts: %w", name, retries+1, ErrRequestDropped)
			}
			s.collector.Faults.Retries++
			if delay := s.backoff.Delay(retries); delay > 0 {
				// The deterministic retry backoff holds the re-dispatch
				// instead of hammering the next node immediately.
				s.collector.Faults.BackoffRetries++
				start += delay
			}
			retries++
			start += service / 2
			node = s.route(fn)
			continue
		}
		s.health.ObserveServed(node.ID, start, service)
		end := start + service
		c.BusyUntil = end
		c.LastDone = end
		rec := metrics.Record{
			Function: fn.Name,
			Kind:     d.Kind,
			Arrival:  now,
			Start:    start,
			End:      end,
			Wait:     start - now,
			Init:     d.Init,
			Load:     d.Load,
			Compute:  compute,
			Retries:  retries,
		}
		s.collector.Add(rec)
		return rec, nil
	}
}

// Breaker exposes the transform circuit breaker (nil when disabled).
func (o *Online) Breaker() *supervisor.Breaker { return o.sim.breaker }

// Watchdog exposes the supervision watchdog (nil when disabled).
func (o *Online) Watchdog() *supervisor.Watchdog { return o.sim.watchdog }

// Health exposes the per-node health tracker (nil when disabled). Callers
// racing with Invoke must use ReadHealth instead.
func (o *Online) Health() *health.Tracker { return o.sim.health }

// ReadHealth runs f with the health tracker (possibly nil) under the server
// lock, so state reads are consistent with concurrent Invoke calls. f must
// not retain the tracker.
func (o *Online) ReadHealth(f func(*health.Tracker)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f(o.sim.health)
}
