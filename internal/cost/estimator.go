package cost

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/model"
)

// Estimator is the output of Module 1 (offline profiling for meta-operators,
// §4.4): the cost table the planner consults when choosing a transformation
// strategy. In the paper the table is measured on the live system; in this
// reproduction the Profile is ground truth and the Estimator optionally
// perturbs it with deterministic multiplicative noise to model measurement
// error, so the planner plans against *estimates* while the simulator charges
// *true* costs — exactly the situation the paper's safeguard defends against.
type Estimator struct {
	p *Profile

	mu sync.RWMutex
	// noise is the multiplicative factor per op type; 0 means the type is
	// not profiled and its costs pass through unscaled.
	noise [256]float64
	// alpha is the EWMA learning rate of online profiling (§6): zero
	// disables learning, making the estimator static.
	alpha float64
	// observations counts Observe calls (for reporting).
	observations int
}

// NewEstimator profiles the given hardware. relErr is the relative
// measurement error (e.g. 0.1 for ±10 %); zero yields exact estimates.
// The noise per op type is drawn deterministically from seed.
func NewEstimator(p *Profile, relErr float64, seed int64) *Estimator {
	e := &Estimator{p: p}
	rng := rand.New(rand.NewSource(seed))
	for _, t := range model.AllOpTypes() {
		f := 1.0
		if relErr > 0 {
			f = 1 + relErr*(2*rng.Float64()-1)
		}
		e.noise[t] = f
	}
	return e
}

// Exact returns an estimator with zero measurement error.
func Exact(p *Profile) *Estimator { return NewEstimator(p, 0, 0) }

// Profile returns the underlying (true) hardware profile.
func (e *Estimator) Profile() *Profile { return e.p }

func (e *Estimator) scale(t model.OpType, d time.Duration) time.Duration {
	e.mu.RLock()
	f := e.noise[t]
	e.mu.RUnlock()
	if f == 0 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// EnableOnlineProfiling turns on online profile refinement (§6 Future Work):
// every Observe call nudges the per-op-type estimate toward the observed
// execution time with EWMA rate alpha (typical 0.2). The paper's prototype
// profiles offline only; transformation plans generated from outdated
// profiles can be inefficient, which online profiling corrects.
func (e *Estimator) EnableOnlineProfiling(alpha float64) {
	e.mu.Lock()
	e.alpha = alpha
	e.mu.Unlock()
}

// Observe feeds one measured meta-operator execution back into the profile:
// the operation type's scale factor moves toward making `predicted` equal
// `actual`. No-op unless online profiling is enabled.
func (e *Estimator) Observe(t model.OpType, predicted, actual time.Duration) {
	if predicted <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.alpha <= 0 {
		return
	}
	f := e.noise[t]
	if f == 0 {
		f = 1
	}
	ratio := float64(actual) / float64(predicted)
	e.noise[t] = f * (1 - e.alpha + e.alpha*ratio)
	e.observations++
}

// Observations returns how many measurements online profiling has absorbed.
func (e *Estimator) Observations() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.observations
}

// Miscalibration returns the mean absolute relative error of the estimator's
// per-op-type factors versus the true profile (0 = perfectly calibrated),
// summed over the profiled types in type order.
func (e *Estimator) Miscalibration() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var sum float64
	n := 0
	for _, f := range e.noise {
		if f == 0 {
			continue
		}
		sum += math.Abs(f - 1)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SubstituteCost estimates transforming src into dst via Reshape/Replace.
func (e *Estimator) SubstituteCost(src, dst *model.Operation) (time.Duration, bool) {
	c, ok := e.p.SubstituteCost(src, dst)
	if !ok {
		return 0, false
	}
	return e.scale(dst.Type, c), true
}

// ReplaceCost estimates overwriting dst's weights in place.
func (e *Estimator) ReplaceCost(dst *model.Operation) time.Duration {
	return e.scale(dst.Type, e.p.ReplaceCost(dst))
}

// ReshapeCost estimates resizing src's properties to dst's.
func (e *Estimator) ReshapeCost(src, dst *model.Operation) time.Duration {
	return e.scale(dst.Type, e.p.ReshapeCost(src, dst))
}

// ReduceCost estimates deleting src.
func (e *Estimator) ReduceCost(src *model.Operation) time.Duration {
	return e.scale(src.Type, e.p.ReduceCost(src))
}

// AddCost estimates creating dst from scratch in-container.
func (e *Estimator) AddCost(dst *model.Operation) time.Duration {
	return e.scale(dst.Type, e.p.AddCost(dst))
}

// EdgeCost estimates n edge rewirings.
func (e *Estimator) EdgeCost(n int) time.Duration { return e.p.EdgeCost(n) }

// ModelLoad estimates loading g from scratch (used by the safeguard).
func (e *Estimator) ModelLoad(g *model.Graph) time.Duration {
	return e.p.ModelLoad(g).Total()
}
