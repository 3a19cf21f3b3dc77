// Package cost models every latency that Optimus' scheduler reasons about:
// sandbox/runtime initialization, model deserialization, model-structure
// loading, weight assignment, inference compute, and the execution time of
// the five in-container transformation meta-operators.
//
// The paper measures these on a real testbed (modified TensorFlow in Docker
// on Xeon servers). This package substitutes an analytic model calibrated to
// the paper's reported *relative* numbers:
//
//   - model loading dominates request time (>50 %, Fig 2) and >74 % of cold
//     startup for VGG16 (Fig 1);
//   - structure loading ≈ 90 % of model loading, weight assignment ≈ 10 %,
//     deserialization negligible (Fig 3);
//   - CONV loads ~10× slower than activation; a 3×3 conv over 512 channels
//     loads ~1.79× slower than over 64 channels (Fig 4);
//   - reshaping a conv costs about ⅓ of loading it from scratch (Fig 5c);
//   - Replace cost scales with destination weight bytes, Add with the
//     destination op's load cost, Reduce is a small constant, Edge is
//     negligible (Fig 8).
//
// All scheduling behaviour in the reproduction depends only on these ratios,
// never on the absolute values.
package cost

import (
	"time"

	"repro/internal/model"
)

// Profile is a hardware/runtime latency profile. Rates are expressed in
// nanoseconds per unit so that costs can be computed in float64 and rounded
// to time.Duration once.
type Profile struct {
	// Name identifies the profile ("cpu", "gpu").
	Name string

	// SandboxInit is the sandbox + runtime initialization latency: container
	// creation, language runtime boot, and ML framework import (step 1 in
	// Fig 1). Pagurus-style container sharing saves this whole term;
	// Tetris-style forking still pays the ContainerCreate portion.
	SandboxInit time.Duration
	// ContainerCreate is the portion of SandboxInit spent creating the
	// container itself (namespaces, cgroups, network) — unavoidable for any
	// scheme that starts a *new* container, even with a memory-mapped
	// runtime.
	ContainerCreate time.Duration

	// DeserializeBase and DeserializePerByte model reading and decoding the
	// serialized model file (negligible per Fig 3).
	DeserializeBase    time.Duration
	DeserializePerByte float64 // ns per serialized byte

	// StructBase holds the per-operation-type base cost of instantiating the
	// operation in the computational graph, indexed by type. It is a value
	// array, so a copied Profile owns its table.
	StructBase [256]time.Duration
	// StructPerWeight is the tensor-allocation cost per weight scalar that
	// makes big convolutions slower to instantiate than small ones.
	StructPerWeight float64 // ns per weight

	// AssignPerByte is the cost of copying deserialized weights into the
	// instantiated structure.
	AssignPerByte float64 // ns per weight byte

	// ComputeBase and ComputePerWeight model inference latency.
	ComputeBase      time.Duration
	ComputePerWeight float64 // ns per weight

	// RuntimeMemMB and MemPerWeightByte model a container's memory footprint
	// (runtime + framework + loaded model). Used by the fine-grained
	// resource-allocation mode (§6 Limitation 1).
	RuntimeMemMB     int
	MemPerWeightByte float64

	// Meta-operator parameters (§4.3 / Fig 8).
	ReplaceBase    time.Duration
	ReplacePerByte float64 // ns per destination weight byte
	// ReshapeBase applies to weighted operations (tensor re-allocation);
	// ReshapeWeightlessBase to weight-free ones (a property update only).
	ReshapeBase           time.Duration
	ReshapeWeightlessBase time.Duration
	// Growing a weight tensor re-allocates and rewrites it (rate close to
	// structure allocation); shrinking is a cheap view/copy. This asymmetry
	// is what makes large→small transformations cheaper than small→large
	// (§8.2 observation 2).
	ReshapePerWeightGrow   float64 // ns per grown weight
	ReshapePerWeightShrink float64 // ns per shrunk weight
	// ReshapeMaxRatio bounds how far a Reshape may scale each *channel
	// dimension* (in/out) of a weighted operation: beyond it the "reshape"
	// is a wholesale rebuild and the planner must delete+add instead.
	// Kernel-size scaling is unrestricted — the strawman's 1×1→5×5 conv
	// (Fig 5b) is the paper's canonical reshape. At the default 6× the BERT
	// size ladder (Tiny 128 ↔ Base 768, §5.2 Example 1) stays reshapeable
	// while a transformer FFN cannot morph into VGG's 25088-wide classifier
	// head. 0 disables the bound.
	ReshapeMaxRatio float64
	ReduceCostPer   time.Duration
	AddBase         time.Duration
	EdgeCostPer     time.Duration
}

// CPU returns the default CPU latency profile, calibrated to the ratios in
// the paper's Figures 1-5 and 8 (see package comment).
func CPU() *Profile {
	return &Profile{
		Name:               "cpu",
		SandboxInit:        200 * time.Millisecond,
		ContainerCreate:    80 * time.Millisecond,
		DeserializeBase:    2 * time.Millisecond,
		DeserializePerByte: 0.01,
		StructBase: [256]time.Duration{
			model.OpInput:           200 * time.Microsecond,
			model.OpOutput:          200 * time.Microsecond,
			model.OpConv2D:          8 * time.Millisecond,
			model.OpDepthwiseConv2D: 6 * time.Millisecond,
			model.OpDense:           6 * time.Millisecond,
			model.OpBatchNorm:       1500 * time.Microsecond,
			model.OpMaxPool:         1 * time.Millisecond,
			model.OpAvgPool:         1 * time.Millisecond,
			model.OpGlobalAvgPool:   1 * time.Millisecond,
			model.OpAdd:             700 * time.Microsecond,
			model.OpConcat:          900 * time.Microsecond,
			model.OpFlatten:         500 * time.Microsecond,
			model.OpDropout:         400 * time.Microsecond,
			model.OpReLU:            800 * time.Microsecond,
			model.OpSigmoid:         800 * time.Microsecond,
			model.OpTanh:            800 * time.Microsecond,
			model.OpGELU:            900 * time.Microsecond,
			model.OpSoftmax:         900 * time.Microsecond,
			model.OpSwish:           900 * time.Microsecond,
			model.OpEmbedding:       5 * time.Millisecond,
			model.OpLayerNorm:       1200 * time.Microsecond,
			model.OpQuery:           6 * time.Millisecond,
			model.OpKey:             6 * time.Millisecond,
			model.OpValue:           6 * time.Millisecond,
			model.OpAttnOutput:      6 * time.Millisecond,
			model.OpLogit:           900 * time.Microsecond,
			model.OpAttend:          900 * time.Microsecond,
			model.OpLSTM:            9 * time.Millisecond,
			model.OpGRU:             8 * time.Millisecond,
			model.OpCRF:             3 * time.Millisecond,
			model.OpIdentity:        300 * time.Microsecond,
			model.OpZero:            200 * time.Microsecond,
		},
		StructPerWeight:        2.74, // calibrated: conv3x3@512 ≈ 1.79× conv3x3@64
		AssignPerByte:          0.25,
		ComputeBase:            10 * time.Millisecond,
		ComputePerWeight:       1.0,
		RuntimeMemMB:           400,
		MemPerWeightByte:       2.0, // weights + activations + framework copies
		ReplaceBase:            200 * time.Microsecond,
		ReplacePerByte:         0.05,
		ReshapeBase:            2500 * time.Microsecond,
		ReshapeWeightlessBase:  300 * time.Microsecond,
		ReshapePerWeightGrow:   2.2, // calibrated: reshape ≈ ⅓ of load (Fig 5c)
		ReshapePerWeightShrink: 0.45,
		ReshapeMaxRatio:        6,
		ReduceCostPer:          500 * time.Microsecond,
		AddBase:                500 * time.Microsecond,
		EdgeCostPer:            50 * time.Microsecond,
	}
}

// GPU returns the GPU latency profile: much slower runtime initialization
// (CUDA context + framework GPU backend) and model loading onto the device,
// faster compute. Per §8.5 the GPU server's end-to-end latency is *longer*
// because of these initialization overheads.
func GPU() *Profile {
	p := CPU()
	p.Name = "gpu"
	p.SandboxInit = 2500 * time.Millisecond // CUDA runtime + device init
	// The CUDA context is per-container and cannot be memory-mapped from a
	// peer, so almost all of the GPU init survives Tetris-style forking.
	p.ContainerCreate = 2 * time.Second
	for t, d := range p.StructBase {
		p.StructBase[t] = d * 12 / 10 // kernel registration overhead
	}
	p.StructPerWeight = 3.4 // device tensor allocation
	p.AssignPerByte = 0.5   // host-to-device copy
	p.ComputeBase = 5 * time.Millisecond
	p.ComputePerWeight = 0.12
	p.ReplacePerByte = 0.12
	p.ReshapePerWeightGrow = 2.8
	p.ReshapePerWeightShrink = 0.6
	return p
}

func dur(ns float64) time.Duration {
	if ns < 0 {
		ns = 0
	}
	return time.Duration(ns)
}

// OpStructureLoad returns the latency of instantiating one operation in the
// computational graph (Fig 4).
func (p *Profile) OpStructureLoad(op *model.Operation) time.Duration {
	base := p.StructBase[op.Type]
	return base + dur(p.StructPerWeight*float64(op.WeightCount()))
}

// OpWeightAssign returns the latency of assigning the operation's weights
// into its instantiated structure.
func (p *Profile) OpWeightAssign(op *model.Operation) time.Duration {
	return dur(p.AssignPerByte * float64(op.WeightBytes()))
}

// OpLoad returns the full latency of creating the operation from scratch:
// structure instantiation plus weight assignment. This is also the dominant
// term of the Add meta-operator.
func (p *Profile) OpLoad(op *model.Operation) time.Duration {
	return p.OpStructureLoad(op) + p.OpWeightAssign(op)
}

// LoadBreakdown decomposes model loading into the three parts of §3.2.
type LoadBreakdown struct {
	Deserialize time.Duration
	Structure   time.Duration
	Weights     time.Duration
}

// Total returns the end-to-end model loading latency.
func (b LoadBreakdown) Total() time.Duration {
	return b.Deserialize + b.Structure + b.Weights
}

// ModelLoad computes the model-loading breakdown for a graph.
func (p *Profile) ModelLoad(g *model.Graph) LoadBreakdown {
	var b LoadBreakdown
	var bytes int64
	for _, op := range g.Ops() {
		b.Structure += p.OpStructureLoad(op)
		b.Weights += p.OpWeightAssign(op)
		bytes += op.WeightBytes()
	}
	b.Deserialize = p.DeserializeBase + dur(p.DeserializePerByte*float64(bytes))
	return b
}

// ColdStart returns the latency of serving the first request on a brand-new
// container: sandbox/runtime init plus full model load (steps 1-2 of Fig 1;
// compute excluded).
func (p *Profile) ColdStart(g *model.Graph) time.Duration {
	return p.SandboxInit + p.ModelLoad(g).Total()
}

// MemoryMB returns the container memory footprint of hosting g: the runtime
// base plus a multiple of the model's weight bytes (framework bookkeeping,
// activations). Fine-grained allocation (§6) sizes containers with this.
func (p *Profile) MemoryMB(g *model.Graph) int {
	var bytes int64
	for _, op := range g.Ops() {
		bytes += op.WeightBytes()
	}
	return p.RuntimeMemMB + int(p.MemPerWeightByte*float64(bytes)/(1<<20))
}

// Compute returns the inference latency of one request against the model.
func (p *Profile) Compute(g *model.Graph) time.Duration {
	var w int64
	for _, op := range g.Ops() {
		if op.HasWeights() {
			w += op.WeightCount()
		}
	}
	return p.ComputeBase + dur(p.ComputePerWeight*float64(w))
}

// ReplaceCost returns the execution time of the Replace meta-operator:
// overwriting an operation's weights with the destination weights.
func (p *Profile) ReplaceCost(dst *model.Operation) time.Duration {
	if !dst.HasWeights() {
		return 0
	}
	return p.ReplaceBase + dur(p.ReplacePerByte*float64(dst.WeightBytes()))
}

// ReshapeCost returns the execution time of the Reshape meta-operator:
// resizing an operation's properties (kernel size, channel count, ...)
// in place. It does not include replacing the weights; substitution of a
// weighted op pays ReshapeCost + ReplaceCost.
func (p *Profile) ReshapeCost(src, dst *model.Operation) time.Duration {
	if !dst.Type.HasWeights() {
		return p.ReshapeWeightlessBase
	}
	sw, dw := src.WeightCount(), dst.WeightCount()
	if dw > sw {
		return p.ReshapeBase + dur(p.ReshapePerWeightGrow*float64(dw-sw))
	}
	return p.ReshapeBase + dur(p.ReshapePerWeightShrink*float64(sw-dw))
}

// Reshapeable reports whether src may be reshaped into dst at all: same
// type, and (for weighted operations) a weight-count ratio within
// ReshapeMaxRatio.
func (p *Profile) Reshapeable(src, dst *model.Operation) bool {
	if src.Type != dst.Type {
		return false
	}
	if !dst.Type.HasWeights() || p.ReshapeMaxRatio <= 0 {
		return true
	}
	within := func(a, b int) bool {
		if a <= 0 || b <= 0 {
			return a == b
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return float64(hi) <= p.ReshapeMaxRatio*float64(lo)
	}
	return within(src.Shape.InChannels, dst.Shape.InChannels) &&
		within(src.Shape.OutChannels, dst.Shape.OutChannels)
}

// ReduceCost returns the execution time of the Reduce meta-operator
// (deleting an operation). Constant per the paper's profiling (§4.4).
func (p *Profile) ReduceCost(src *model.Operation) time.Duration {
	return p.ReduceCostPer
}

// AddCost returns the execution time of the Add meta-operator: creating the
// destination operation from scratch inside the container.
func (p *Profile) AddCost(dst *model.Operation) time.Duration {
	return p.AddBase + p.OpLoad(dst)
}

// EdgeCost returns the execution time of n Edge meta-operator applications
// (rewiring dataflow edges). Negligible per the paper's profiling.
func (p *Profile) EdgeCost(n int) time.Duration {
	return time.Duration(n) * p.EdgeCostPer
}

// SubstituteCost returns the cost of transforming source operation src into
// destination operation dst via Replace and/or Reshape, and whether such a
// substitution is possible at all. Per §4.4's first observation, operations
// of different types cannot be substituted.
func (p *Profile) SubstituteCost(src, dst *model.Operation) (time.Duration, bool) {
	if src.Type != dst.Type {
		return 0, false
	}
	if src.Shape == dst.Shape {
		if src.WeightsID == dst.WeightsID {
			return 0, true // already identical
		}
		return p.ReplaceCost(dst), true
	}
	if !p.Reshapeable(src, dst) {
		return 0, false
	}
	c := p.ReshapeCost(src, dst)
	if dst.HasWeights() {
		c += p.ReplaceCost(dst)
	}
	return c, true
}
