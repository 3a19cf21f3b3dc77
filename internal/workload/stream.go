// Trace sources: every generator family (Poisson, Mixed, AzureLike) is a
// lazy per-function arrival iterator merged through a k-way heap, yielding
// requests in (timestamp, function name) order with O(functions) memory.
// The materialized generators in workload.go drain these streams. Each
// iterator's rng draw order is part of the fixed-seed contract: reordering
// draws changes every generated trace.

package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Cursor yields requests in nondecreasing timestamp order. Next returns
// false when the source is exhausted; after that every call returns false.
type Cursor interface {
	Next() (Request, bool)
}

// arrivalGen lazily yields one function's arrival offsets in nondecreasing
// order; ok=false ends the stream (and stays false).
type arrivalGen func() (at time.Duration, ok bool)

// poissonArrivals yields Poisson arrivals at ratePerSec until duration.
func poissonArrivals(ratePerSec float64, duration time.Duration, rng *rand.Rand) arrivalGen {
	at := time.Duration(0)
	done := false
	return func() (time.Duration, bool) {
		if done {
			return 0, false
		}
		at += time.Duration(rng.ExpFloat64() / ratePerSec * float64(time.Second))
		if at >= duration {
			done = true
			return 0, false
		}
		return at, true
	}
}

// diurnalArrivals yields a non-homogeneous Poisson process whose rate
// follows a 24-hour sinusoid (peak ≈ 4× trough) with a per-function phase —
// office and overnight-batch workloads in the Azure characterization.
// Thinning keeps the process exact. Construction draws peak, then phase.
func diurnalArrivals(duration time.Duration, rng *rand.Rand) arrivalGen {
	peak := 0.005 + 0.015*rng.Float64()
	phase := rng.Float64() * 24 * float64(time.Hour)
	rate := func(at time.Duration) float64 {
		x := (float64(at) + phase) / float64(24*time.Hour) * 2 * math.Pi
		return peak * (0.6 + 0.4*math.Sin(x))
	}
	at := time.Duration(0)
	done := false
	return func() (time.Duration, bool) {
		if done {
			return 0, false
		}
		for {
			at += time.Duration(rng.ExpFloat64() / peak * float64(time.Second))
			if at >= duration {
				done = true
				return 0, false
			}
			if rng.Float64() < rate(at)/peak { // thinning
				return at, true
			}
		}
	}
}

// burstyArrivals yields alternating on/off phases; during an on-phase the
// function sees Poisson arrivals at a high rate. Each phase draws onLen,
// offLen, then its gaps.
func burstyArrivals(duration time.Duration, rng *rand.Rand) arrivalGen {
	rate := 0.02 + 0.06*rng.Float64()
	at := time.Duration(0)  // next phase start
	cur := time.Duration(0) // cursor inside the current on-phase
	end := time.Duration(0) // current on-phase end
	inPhase := false
	done := false
	return func() (time.Duration, bool) {
		if done {
			return 0, false
		}
		for {
			if !inPhase {
				if at >= duration {
					done = true
					return 0, false
				}
				onLen := time.Duration((2 + 8*rng.Float64()) * float64(time.Minute))
				offLen := time.Duration((10 + 35*rng.Float64()) * float64(time.Minute))
				end = at + onLen
				if end > duration {
					end = duration
				}
				cur = at
				at = end + offLen
				inPhase = true
			}
			cur += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if cur < end {
				return cur, true
			}
			inPhase = false
		}
	}
}

// periodicArrivals yields timer-driven arrivals with a fixed period and
// ±10 % jitter, starting at a random phase.
func periodicArrivals(duration time.Duration, rng *rand.Rand) arrivalGen {
	periods := []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour}
	period := periods[rng.Intn(len(periods))]
	at := time.Duration(rng.Float64() * float64(period))
	done := false
	return func() (time.Duration, bool) {
		if done || at >= duration {
			done = true
			return 0, false
		}
		cur := at
		jitter := 1 + 0.2*(rng.Float64()-0.5)
		at += time.Duration(float64(period) * jitter)
		return cur, true
	}
}

// rareArrivals yields sparse Poisson arrivals (mean one per 30-120 minutes).
func rareArrivals(duration time.Duration, rng *rand.Rand) arrivalGen {
	mean := time.Duration((30 + 90*rng.Float64()) * float64(time.Minute))
	at := time.Duration(0)
	done := false
	return func() (time.Duration, bool) {
		if done {
			return 0, false
		}
		at += time.Duration(rng.ExpFloat64() * float64(mean))
		if at >= duration {
			done = true
			return 0, false
		}
		return at, true
	}
}

// fnCursor is one function's buffered head inside the merge heap.
type fnCursor struct {
	at   time.Duration
	name string
	gen  arrivalGen
}

// Stream merges per-function lazy generators through a k-way min-heap keyed
// (at, name) — the same order sortTrace guarantees — holding one buffered
// arrival per function: O(functions) memory however long the trace.
type Stream struct {
	duration time.Duration
	h        []fnCursor
}

// Duration returns the stream's time horizon.
func (s *Stream) Duration() time.Duration { return s.duration }

// Next implements Cursor: it pops the earliest buffered arrival and refills
// that function's slot from its generator.
func (s *Stream) Next() (Request, bool) {
	if len(s.h) == 0 {
		return Request{}, false
	}
	top := s.h[0]
	req := Request{Function: top.name, At: top.at}
	if at, ok := top.gen(); ok {
		s.h[0].at = at
		s.siftDown(0)
	} else {
		n := len(s.h) - 1
		s.h[0] = s.h[n]
		s.h[n] = fnCursor{}
		s.h = s.h[:n]
		if n > 0 {
			s.siftDown(0)
		}
	}
	return req, true
}

// Materialize drains the stream into a Trace.
func (s *Stream) Materialize() *Trace {
	t := &Trace{Duration: s.duration}
	for {
		r, ok := s.Next()
		if !ok {
			return t
		}
		t.Requests = append(t.Requests, r)
	}
}

func (s *Stream) less(i, j int) bool {
	if s.h[i].at != s.h[j].at {
		return s.h[i].at < s.h[j].at
	}
	return s.h[i].name < s.h[j].name
}

func (s *Stream) siftDown(i int) {
	n := len(s.h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		s.h[i], s.h[small] = s.h[small], s.h[i]
		i = small
	}
}

// newStream builds the merge heap over named generators, drawing each one's
// first arrival; exhausted generators are dropped up front.
func newStream(duration time.Duration, names []string, gens []arrivalGen) *Stream {
	s := &Stream{duration: duration}
	for i, g := range gens {
		if at, ok := g(); ok {
			s.h = append(s.h, fnCursor{at: at, name: names[i], gen: g})
		}
	}
	for i := len(s.h)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	return s
}

// StreamPoissonRates is PoissonRates as a constant-memory stream. Each
// function draws from its own rng, seeded by its index in name order.
func StreamPoissonRates(rates map[string]float64, duration time.Duration, seed int64) *Stream {
	names := make([]string, 0, len(rates))
	for f := range rates {
		names = append(names, f)
	}
	sort.Strings(names) // deterministic iteration
	used := make([]string, 0, len(names))
	gens := make([]arrivalGen, 0, len(names))
	for i, f := range names {
		rate := rates[f]
		if rate <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		used = append(used, f)
		gens = append(gens, poissonArrivals(rate, duration, rng))
	}
	return newStream(duration, used, gens)
}

// StreamAzureLike is AzureLike as a constant-memory stream. Class
// assignment consumes one shared rng in fns order; each function's arrivals
// draw from an rng seeded by its name.
func StreamAzureLike(fns []string, duration time.Duration, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(fns))
	gens := make([]arrivalGen, 0, len(fns))
	for _, f := range fns {
		u := rng.Float64()
		frng := rand.New(rand.NewSource(seed ^ int64(hashString(f))))
		var g arrivalGen
		switch {
		case u < 0.10:
			g = burstyArrivals(duration, frng)
		case u < 0.35:
			g = periodicArrivals(duration, frng)
		case u < 0.50:
			g = diurnalArrivals(duration, frng)
		default:
			g = rareArrivals(duration, frng)
		}
		names = append(names, f)
		gens = append(gens, g)
	}
	return newStream(duration, names, gens)
}

// traceCursor adapts a materialized Trace to the Cursor interface.
type traceCursor struct {
	t *Trace
	i int
}

func (c *traceCursor) Next() (Request, bool) {
	if c.i >= len(c.t.Requests) {
		return Request{}, false
	}
	r := c.t.Requests[c.i]
	c.i++
	return r, true
}

// Cursor returns a streaming view over the (already time-sorted) trace.
func (t *Trace) Cursor() Cursor { return &traceCursor{t: t} }

// SeriesFromCursor computes per-slot demand series for every function in
// fns in a single streaming pass — the streaming twin of AllSeries, with
// O(functions × slots) memory.
func SeriesFromCursor(src Cursor, duration time.Duration, fns []string, slot time.Duration) map[string][]float64 {
	out := make(map[string][]float64, len(fns))
	if slot <= 0 || duration <= 0 {
		return out
	}
	n := int(duration/slot) + 1
	for _, f := range fns {
		out[f] = make([]float64, n)
	}
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		if s, ok := out[r.Function]; ok {
			i := int(r.At / slot)
			if i >= 0 && i < len(s) {
				s[i]++
			}
		}
	}
}
