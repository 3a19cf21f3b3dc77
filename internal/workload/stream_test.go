package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// fnNames builds n distinct function names.
func fnNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn-%02d", i)
	}
	return out
}

// sameTrace requires a and b to be request-for-request identical.
func sameTrace(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Duration != b.Duration {
		t.Fatalf("duration: %v vs %v", a.Duration, b.Duration)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("length: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

// drainInto appends every arrival of g to the trace, in generation order.
func drainInto(t *Trace, f string, g arrivalGen) {
	for {
		at, ok := g()
		if !ok {
			return
		}
		t.Requests = append(t.Requests, Request{Function: f, At: at})
	}
}

// sortReference orders a reference trace by (At, Function), stably.
func sortReference(t *Trace) *Trace {
	sort.SliceStable(t.Requests, func(i, j int) bool {
		a, b := t.Requests[i], t.Requests[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Function < b.Function
	})
	return t
}

// refPoissonRates is the reference Poisson generator: each function in name
// order drains its own iterator, seeded by its index, and the concatenation
// is sorted afterwards instead of merged.
func refPoissonRates(rates map[string]float64, duration time.Duration, seed int64) *Trace {
	t := &Trace{Duration: duration}
	names := make([]string, 0, len(rates))
	for f := range rates {
		names = append(names, f)
	}
	sort.Strings(names)
	for i, f := range names {
		if rates[f] <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		drainInto(t, f, poissonArrivals(rates[f], duration, rng))
	}
	return sortReference(t)
}

// refAzureLike is the reference Azure-like generator: class draws from one
// shared rng in fns order, each function drains its class's iterator in
// full, and the concatenation is sorted afterwards.
func refAzureLike(fns []string, duration time.Duration, seed int64) *Trace {
	t := &Trace{Duration: duration}
	rng := rand.New(rand.NewSource(seed))
	for _, f := range fns {
		u := rng.Float64()
		frng := rand.New(rand.NewSource(seed ^ int64(hashString(f))))
		switch {
		case u < 0.10:
			drainInto(t, f, burstyArrivals(duration, frng))
		case u < 0.35:
			drainInto(t, f, periodicArrivals(duration, frng))
		case u < 0.50:
			drainInto(t, f, diurnalArrivals(duration, frng))
		default:
			drainInto(t, f, rareArrivals(duration, frng))
		}
	}
	return sortReference(t)
}

// TestStreamMatchesMaterialized is the byte-identity property: for every
// generator family and seeds 1..8, the heap-merged generators must
// reproduce the drain-then-sort reference exactly, including the
// (At, Function) tie-break order.
func TestStreamMatchesMaterialized(t *testing.T) {
	fns := fnNames(40)
	const horizon = 48 * time.Hour
	rates := map[string]float64{}
	uniform := map[string]float64{}
	mixed := map[string]float64{}
	levels := []float64{RateFrequent, RateMiddle, RateInfrequent}
	for i, f := range fns {
		rates[f] = RateFrequent * float64(1+i%7)
		uniform[f] = RateFrequent
		mixed[f] = levels[i%len(levels)]
	}
	families := []struct {
		name string
		ref  func(seed int64) *Trace
		gen  func(seed int64) *Trace
	}{
		{"poisson", func(s int64) *Trace { return refPoissonRates(uniform, horizon, s) },
			func(s int64) *Trace { return Poisson(fns, RateFrequent, horizon, s) }},
		{"poisson-rates", func(s int64) *Trace { return refPoissonRates(rates, horizon, s) },
			func(s int64) *Trace { return PoissonRates(rates, horizon, s) }},
		{"mixed", func(s int64) *Trace { return refPoissonRates(mixed, horizon, s) },
			func(s int64) *Trace { return MixedPoisson(fns, horizon, s) }},
		{"azure", func(s int64) *Trace { return refAzureLike(fns, horizon, s) },
			func(s int64) *Trace { return AzureLike(fns, horizon, s) }},
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fam.name, seed), func(t *testing.T) {
				want := fam.ref(seed)
				got := fam.gen(seed)
				if want.Len() == 0 {
					t.Fatalf("empty reference trace — vacuous comparison")
				}
				sameTrace(t, want, got)
			})
		}
	}
}

// TestStreamTieBreak drives the merge heap directly with generators that
// collide on timestamps: equal arrival times must come out ordered by
// function name.
func TestStreamTieBreak(t *testing.T) {
	const horizon = 10 * time.Second
	// Three functions all firing at t=1s,2s,3s,... — every timestamp is a
	// three-way tie. Register them out of name order to make heap order do
	// the work.
	mk := func() arrivalGen {
		at := time.Duration(0)
		return func() (time.Duration, bool) {
			at += time.Second
			if at >= horizon {
				return 0, false
			}
			return at, true
		}
	}
	names := []string{"zz", "aa", "mm"}
	s := newStream(horizon, names, []arrivalGen{mk(), mk(), mk()})
	want := &Trace{Duration: horizon}
	for at := time.Second; at < horizon; at += time.Second {
		for _, f := range []string{"aa", "mm", "zz"} {
			want.Requests = append(want.Requests, Request{Function: f, At: at})
		}
	}
	sameTrace(t, want, s.Materialize())
}

// TestStreamExhaustion checks Next keeps returning false after the end.
func TestStreamExhaustion(t *testing.T) {
	s := StreamPoissonRates(map[string]float64{"a": RateFrequent, "b": RateFrequent, "c": RateFrequent}, time.Hour, 1)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	for i := 0; i < 3; i++ {
		if r, ok := s.Next(); ok {
			t.Fatalf("Next after exhaustion returned %+v", r)
		}
	}
}

// TestTraceCursor checks the materialized adapter replays the trace as-is.
func TestTraceCursor(t *testing.T) {
	tr := MixedPoisson(fnNames(5), 6*time.Hour, 3)
	cur := tr.Cursor()
	for i := range tr.Requests {
		r, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor ended early at %d of %d", i, tr.Len())
		}
		if r != tr.Requests[i] {
			t.Fatalf("request %d: %+v vs %+v", i, r, tr.Requests[i])
		}
	}
	if _, ok := cur.Next(); ok {
		t.Fatalf("cursor did not end with the trace")
	}
}

// TestSeriesFromCursor checks the streaming demand series matches the
// materialized AllSeries for every function.
func TestSeriesFromCursor(t *testing.T) {
	fns := fnNames(12)
	const horizon = 24 * time.Hour
	tr := AzureLike(fns, horizon, 5)
	want := AllSeries(tr, fns, 10*time.Minute)
	got := SeriesFromCursor(StreamAzureLike(fns, horizon, 5), horizon, fns, 10*time.Minute)
	for _, f := range fns {
		w, g := want[f], got[f]
		if len(w) != len(g) {
			t.Fatalf("%s: series length %d vs %d", f, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s slot %d: %v vs %v", f, i, w[i], g[i])
			}
		}
	}
}
