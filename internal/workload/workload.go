// Package workload generates function-invocation arrival traces (§8.1):
// Poisson arrivals at the paper's three intensities, and a synthetic
// Azure-Functions-like trace substituting for the proprietary 2021
// production trace. The Azure substitute mixes the invocation classes
// characterized by Shahrad et al. (ATC '20): a small set of frequently
// invoked functions dominating traffic, a band of periodic (timer-driven)
// functions, and a long tail of rarely invoked, bursty functions.
//
// All generators are deterministic under a seed.
package workload

import (
	"math"
	"sort"
	"time"
)

// Request is one function invocation.
type Request struct {
	// Function is the invoked function's name.
	Function string
	// At is the arrival offset from the start of the trace.
	At time.Duration
}

// Trace is a time-ordered sequence of requests.
type Trace struct {
	Requests []Request
	Duration time.Duration
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// sortTrace orders requests by arrival, ties by function name — the order
// the generators' merge heap emits. Only the CSV readers need it: their
// input may be unsorted.
func sortTrace(t *Trace) {
	sort.SliceStable(t.Requests, func(i, j int) bool {
		if t.Requests[i].At != t.Requests[j].At {
			return t.Requests[i].At < t.Requests[j].At
		}
		return t.Requests[i].Function < t.Requests[j].Function
	})
}

// The paper drives each inference service with Poisson arrivals at three
// intensities (§8.1). The λ exponents listed there (10⁻³·⁵, 10⁻², 10⁻²·⁵ for
// "frequent, middle, infrequent") are ordered inconsistently; we map the
// labels monotonically, which matches the evident intent.
var (
	// RateFrequent is λ = 10⁻² requests/second (one per ~100 s).
	RateFrequent = math.Pow(10, -2)
	// RateMiddle is λ = 10⁻²·⁵ requests/second (one per ~316 s).
	RateMiddle = math.Pow(10, -2.5)
	// RateInfrequent is λ = 10⁻³·⁵ requests/second (one per ~3162 s).
	RateInfrequent = math.Pow(10, -3.5)
)

// Poisson generates a trace where every function receives independent
// Poisson arrivals at ratePerSec for the given duration.
func Poisson(fns []string, ratePerSec float64, duration time.Duration, seed int64) *Trace {
	rates := make(map[string]float64, len(fns))
	for _, f := range fns {
		rates[f] = ratePerSec
	}
	return PoissonRates(rates, duration, seed)
}

// PoissonRates generates independent Poisson arrivals with a per-function
// rate (requests per second); functions with a non-positive rate get none.
func PoissonRates(rates map[string]float64, duration time.Duration, seed int64) *Trace {
	return StreamPoissonRates(rates, duration, seed).Materialize()
}

// MixedPoisson assigns functions round-robin to the three paper intensities
// and generates the combined trace.
func MixedPoisson(fns []string, duration time.Duration, seed int64) *Trace {
	rates := make(map[string]float64, len(fns))
	levels := []float64{RateFrequent, RateMiddle, RateInfrequent}
	for i, f := range fns {
		rates[f] = levels[i%len(levels)]
	}
	return PoissonRates(rates, duration, seed)
}

// AzureLike generates a production-like trace: 10 % of functions are
// "popular" with high-rate on/off bursts, 25 % are periodic timers with
// jitter, 15 % follow a diurnal (day/night) cycle with randomized phase,
// and 50 % form the rare long tail. The class mix and magnitudes follow the
// Azure Functions characterization of Shahrad et al.
func AzureLike(fns []string, duration time.Duration, seed int64) *Trace {
	return StreamAzureLike(fns, duration, seed).Materialize()
}

// Series returns the per-slot invocation counts of one function across the
// trace — the historical demand dynamics {l_t} of §5.1.
func Series(t *Trace, fn string, slot time.Duration) []float64 {
	if slot <= 0 || t.Duration <= 0 {
		return nil
	}
	n := int(t.Duration/slot) + 1
	out := make([]float64, n)
	for _, r := range t.Requests {
		if r.Function == fn {
			out[int(r.At/slot)]++
		}
	}
	return out
}

// AllSeries computes demand series for every function appearing in fns.
func AllSeries(t *Trace, fns []string, slot time.Duration) map[string][]float64 {
	out := make(map[string][]float64, len(fns))
	for _, f := range fns {
		out[f] = Series(t, f, slot)
	}
	return out
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
