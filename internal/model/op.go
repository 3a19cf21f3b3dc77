// Package model defines the operation-graph representation of ML models used
// throughout Optimus.
//
// A model is a directed acyclic graph whose nodes are operations (convolution,
// dense, attention, activation, ...) and whose edges are dataflow. This is the
// granularity at which the paper's inter-function model transformation works:
// meta-operators rewrite individual operations and edges of the graph held in
// a warm container instead of loading a whole new model from scratch.
//
// The representation is deliberately structural: it carries operation types,
// shape properties and weight *identities* (not values), because every
// scheduling decision in the paper depends only on structure and weight sizes.
package model

import "fmt"

// OpType identifies the kind of an operation in a model graph.
type OpType uint8

// Operation types. The CNN types follow §3.2 of the paper (conv, pooling,
// activation, add, dense, batch-norm, ...); the transformer types follow §5.2
// (embedding; Query/Key/Value/Output with weights; Logit/Attend without).
const (
	OpInvalid OpType = iota

	// Structural endpoints.
	OpInput
	OpOutput

	// CNN operations.
	OpConv2D
	OpDepthwiseConv2D
	OpDense
	OpBatchNorm
	OpMaxPool
	OpAvgPool
	OpGlobalAvgPool
	OpAdd
	OpConcat
	OpFlatten
	OpDropout

	// Activations.
	OpReLU
	OpSigmoid
	OpTanh
	OpGELU
	OpSoftmax
	OpSwish

	// Transformer operations.
	OpEmbedding
	OpLayerNorm
	OpQuery
	OpKey
	OpValue
	OpAttnOutput
	OpLogit
	OpAttend

	// Recurrent operations (§7: the meta-operator interfaces cover CNN,
	// RNN and transformer models).
	OpLSTM
	OpGRU

	// Downstream-task head operations.
	OpCRF

	// Identity / zero ops (NAS-Bench-201 search space).
	OpIdentity
	OpZero

	opTypeCount // sentinel; keep last
)

var opTypeNames = [...]string{
	OpInvalid:         "invalid",
	OpInput:           "input",
	OpOutput:          "output",
	OpConv2D:          "conv2d",
	OpDepthwiseConv2D: "dwconv2d",
	OpDense:           "dense",
	OpBatchNorm:       "batchnorm",
	OpMaxPool:         "maxpool",
	OpAvgPool:         "avgpool",
	OpGlobalAvgPool:   "gavgpool",
	OpAdd:             "add",
	OpConcat:          "concat",
	OpFlatten:         "flatten",
	OpDropout:         "dropout",
	OpReLU:            "relu",
	OpSigmoid:         "sigmoid",
	OpTanh:            "tanh",
	OpGELU:            "gelu",
	OpSoftmax:         "softmax",
	OpSwish:           "swish",
	OpEmbedding:       "embedding",
	OpLayerNorm:       "layernorm",
	OpQuery:           "query",
	OpKey:             "key",
	OpValue:           "value",
	OpAttnOutput:      "attnoutput",
	OpLogit:           "logit",
	OpAttend:          "attend",
	OpLSTM:            "lstm",
	OpGRU:             "gru",
	OpCRF:             "crf",
	OpIdentity:        "identity",
	OpZero:            "zero",
}

// String returns the canonical lower-case name of the operation type.
func (t OpType) String() string {
	if int(t) < len(opTypeNames) && opTypeNames[t] != "" {
		return opTypeNames[t]
	}
	return fmt.Sprintf("optype(%d)", uint8(t))
}

// Valid reports whether t is a defined operation type.
func (t OpType) Valid() bool {
	return t > OpInvalid && t < opTypeCount
}

// OpTypeFromString returns the OpType whose String() equals s.
func OpTypeFromString(s string) (OpType, error) {
	for t := OpType(1); t < opTypeCount; t++ {
		if opTypeNames[t] == s {
			return t, nil
		}
	}
	return OpInvalid, fmt.Errorf("model: unknown op type %q", s)
}

// HasWeights reports whether operations of this type carry trained weights.
// Per the paper's Insight in §3.2, weighted operations (conv, dense, Q/K/V/O,
// embedding, norm scales, CRF) load much more slowly than weight-free ones
// (activation, pooling, add, logit, attend).
func (t OpType) HasWeights() bool {
	switch t {
	case OpConv2D, OpDepthwiseConv2D, OpDense, OpBatchNorm, OpLayerNorm,
		OpEmbedding, OpQuery, OpKey, OpValue, OpAttnOutput, OpCRF,
		OpLSTM, OpGRU:
		return true
	}
	return false
}

// IsActivation reports whether t is a pointwise activation.
func (t OpType) IsActivation() bool {
	switch t {
	case OpReLU, OpSigmoid, OpTanh, OpGELU, OpSoftmax, OpSwish:
		return true
	}
	return false
}

// IsTransformer reports whether t appears only in transformer models.
func (t OpType) IsTransformer() bool {
	switch t {
	case OpEmbedding, OpQuery, OpKey, OpValue, OpAttnOutput, OpLogit, OpAttend:
		return true
	}
	return false
}

// AllOpTypes returns every defined operation type in declaration order.
func AllOpTypes() []OpType {
	out := make([]OpType, 0, int(opTypeCount)-1)
	for t := OpType(1); t < opTypeCount; t++ {
		out = append(out, t)
	}
	return out
}

// Shape carries the size properties of an operation. Field meaning depends on
// the operation type:
//
//   - Conv2D / DepthwiseConv2D / pooling: KernelH×KernelW kernel, InChannels →
//     OutChannels, Stride.
//   - Dense / Query / Key / Value / AttnOutput: InChannels → OutChannels units.
//   - BatchNorm / LayerNorm / activations / Add: OutChannels is the feature
//     width the op is applied over.
//   - Embedding: InChannels is the vocabulary size, OutChannels the hidden dim.
//   - CRF: OutChannels is the tag count (transition matrix is Out×Out).
//
// Unused fields are zero.
type Shape struct {
	KernelH     int
	KernelW     int
	InChannels  int
	OutChannels int
	Stride      int
}

// String renders the shape compactly, e.g. "3x3,64->128,s2" for a conv.
func (s Shape) String() string {
	switch {
	case s.KernelH > 0 && s.Stride > 1:
		return fmt.Sprintf("%dx%d,%d->%d,s%d", s.KernelH, s.KernelW, s.InChannels, s.OutChannels, s.Stride)
	case s.KernelH > 0:
		return fmt.Sprintf("%dx%d,%d->%d", s.KernelH, s.KernelW, s.InChannels, s.OutChannels)
	case s.InChannels > 0 || s.OutChannels > 0:
		return fmt.Sprintf("%d->%d", s.InChannels, s.OutChannels)
	default:
		return "scalar"
	}
}

// Operation is a node in a model graph.
type Operation struct {
	// ID is the operation's identifier, unique within its graph. IDs are
	// dense indexes assigned by Graph.AddOp.
	ID int
	// Name is a human-readable layer name such as "conv2_1" or "blk3.query".
	Name string
	// Type is the operation kind.
	Type OpType
	// Shape carries the operation's size properties.
	Shape Shape
	// WeightsID identifies the trained weight tensor held by this operation.
	// Two operations with equal Type, Shape and WeightsID are bit-identical
	// (this is the sharing condition used by the Tetris baseline). Zero for
	// weight-free operations.
	WeightsID uint64
}

// WeightCount returns the number of scalar parameters the operation holds.
func (o *Operation) WeightCount() int64 {
	s := o.Shape
	switch o.Type {
	case OpConv2D:
		return int64(s.KernelH)*int64(s.KernelW)*int64(s.InChannels)*int64(s.OutChannels) + int64(s.OutChannels)
	case OpDepthwiseConv2D:
		return int64(s.KernelH)*int64(s.KernelW)*int64(s.InChannels) + int64(s.InChannels)
	case OpDense, OpQuery, OpKey, OpValue, OpAttnOutput:
		return int64(s.InChannels)*int64(s.OutChannels) + int64(s.OutChannels)
	case OpBatchNorm:
		return 4 * int64(s.OutChannels) // gamma, beta, moving mean, moving var
	case OpLayerNorm:
		return 2 * int64(s.OutChannels) // gamma, beta
	case OpEmbedding:
		return int64(s.InChannels) * int64(s.OutChannels)
	case OpLSTM:
		// Four gates: W_x (in×h), W_h (h×h) and bias per gate.
		h := int64(s.OutChannels)
		return 4 * (int64(s.InChannels)*h + h*h + h)
	case OpGRU:
		// Three gates.
		h := int64(s.OutChannels)
		return 3 * (int64(s.InChannels)*h + h*h + h)
	case OpCRF:
		return int64(s.OutChannels) * int64(s.OutChannels)
	default:
		return 0
	}
}

// WeightBytes returns the serialized size of the operation's weights assuming
// float32 storage, matching the HDF5 files the paper's prototype ships.
func (o *Operation) WeightBytes() int64 { return 4 * o.WeightCount() }

// HasWeights reports whether the operation carries trained weights.
func (o *Operation) HasWeights() bool { return o.Type.HasWeights() }

// SameStructure reports whether two operations have identical type and shape
// (weights may differ). This is the condition under which the Replace
// meta-operator alone suffices to transform o into other.
func (o *Operation) SameStructure(other *Operation) bool {
	return o.Type == other.Type && o.Shape == other.Shape
}

// String renders the operation for debugging.
func (o *Operation) String() string {
	return fmt.Sprintf("#%d %s[%s %s]", o.ID, o.Name, o.Type, o.Shape)
}
