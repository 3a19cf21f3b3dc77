package planner

import (
	"sync"

	"repro/internal/cost"
	"repro/internal/model"
)

// groupScratch is groupMapping's working memory. It is pooled, so a plan
// allocates only its own result: the type buckets, the matched flags and the
// key table are reused across plans (and, through the pool, across the
// precompute workers, each holding its own scratch while it plans).
type groupScratch struct {
	srcByType, dstByType []int // topological order, stably bucketed by type
	srcOff, dstOff       [257]int
	matched              []bool
	keys                 keyTable
}

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// groupMapping implements the efficient group-based transformation algorithm
// of §4.4 Module 2⁺ in O(n+m):
//
//  1. group the operations of both models by type;
//  2. within each type, match operations sequentially one by one in
//     topological order (per the observation that operation shapes grow
//     monotonically with depth, sequential matching of weighted ops is
//     near-optimal, and weight-free ops can be matched arbitrarily);
//  3. unmatched source ops are reduced, unmatched destination ops added.
func groupMapping(est *cost.Estimator, src, dst *model.Graph) Mapping {
	sc := groupPool.Get().(*groupScratch)
	defer groupPool.Put(sc)
	sc.srcByType = bucketByType(src, topoOrder(src), sc.srcByType, &sc.srcOff)
	sc.dstByType = bucketByType(dst, topoOrder(dst), sc.dstByType, &sc.dstOff)
	sc.matched = resize(sc.matched, dst.NumOps())
	clear(sc.matched)

	mp := Mapping{SrcToDst: make([]int, src.NumOps())}
	for i := range mp.SrcToDst {
		mp.SrcToDst[i] = -1
	}
	for t := 0; t < 256; t++ {
		srcIDs := sc.srcByType[sc.srcOff[t]:sc.srcOff[t+1]]
		dstIDs := sc.dstByType[sc.dstOff[t]:sc.dstOff[t+1]]
		if len(srcIDs) > 0 && len(dstIDs) > 0 {
			matchGroup(est, src, dst, &sc.keys, srcIDs, dstIDs, mp.SrcToDst, sc.matched)
		}
	}
	added := 0
	for _, m := range sc.matched {
		if !m {
			added++
		}
	}
	if added > 0 {
		mp.Added = make([]int, 0, added)
		for j, m := range sc.matched {
			if !m {
				mp.Added = append(mp.Added, j)
			}
		}
	}
	return mp
}

// bucketByType counting-sorts order by operation type into buf: afterwards
// the type-t group is buf[off[t]:off[t+1]], still in topological order.
func bucketByType(g *model.Graph, order []int, buf []int, off *[257]int) []int {
	*off = [257]int{}
	for _, id := range order {
		off[int(g.Op(id).Type)+1]++
	}
	for t := 1; t < len(off); t++ {
		off[t] += off[t-1]
	}
	buf = resize(buf, len(order))
	var next [256]int
	copy(next[:], off[:256])
	for _, id := range order {
		t := g.Op(id).Type
		buf[next[t]] = id
		next[t]++
	}
	return buf
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// matchKey buckets operations within a type group. Identical keys mean a
// substitution needs no Reshape (and, when weights also coincide, no work at
// all), so the matcher pairs those first.
type matchKey struct {
	shape   model.Shape
	weights uint64
}

// matchGroup pairs source and destination operations of one type in three
// linear passes: (1) identical shape+weights (zero-cost matches — shared
// pre-trained tensors, e.g. the BERT base under two downstream heads);
// (2) identical shape (Replace only); (3) remaining ops sequentially in
// topological order (Reshape), exploiting the monotone-shape observation.
// Within an exact-key pass the k-th source op of a key pairs with the k-th
// destination op of that key. Both ID slices are scratch: unmatched ops are
// compacted to their fronts in place.
func matchGroup(est *cost.Estimator, src, dst *model.Graph, keys *keyTable, srcLeft, dstLeft []int, srcToDst []int, matched []bool) {
	pair := func(i, j int) {
		srcToDst[i] = j
		matched[j] = true
	}
	for pass := 0; pass < 2 && len(srcLeft) > 0 && len(dstLeft) > 0; pass++ {
		keys.reset(len(srcLeft))
		for p, i := range srcLeft {
			keys.push(keyOf(src.Op(i), pass), p)
		}
		nd := 0
		for _, j := range dstLeft {
			if p := keys.pop(keyOf(dst.Op(j), pass)); p >= 0 {
				pair(srcLeft[p], j)
				srcLeft[p] = -1
			} else {
				dstLeft[nd] = j
				nd++
			}
		}
		ns := 0
		for _, i := range srcLeft {
			if i >= 0 {
				srcLeft[ns] = i
				ns++
			}
		}
		srcLeft, dstLeft = srcLeft[:ns], dstLeft[:nd]
	}
	// Final pass: remaining ops sequentially in topological order, skipping
	// pairs the profile rules un-reshapeable (extreme size ratios); those
	// destinations fall through to Add and the sources to Reduce.
	prof := est.Profile()
	si := 0
	for _, j := range dstLeft {
		for si < len(srcLeft) && !prof.Reshapeable(src.Op(srcLeft[si]), dst.Op(j)) {
			si++
		}
		if si == len(srcLeft) {
			break
		}
		pair(srcLeft[si], j)
		si++
	}
}

func keyOf(op *model.Operation, pass int) matchKey {
	k := matchKey{shape: op.Shape}
	if pass == 0 {
		k.weights = op.WeightsID
	}
	return k
}

// keyTable is an open-addressing hash table from matchKey to a FIFO chain of
// source positions. It is sized for the source side only: push may insert,
// pop never does, so a lookup of a key no source op has ends at the first
// empty slot however many distinct keys the destination brings. reset clears
// it in O(1) by bumping the generation stamp that marks a slot live.
type keyTable struct {
	slots []keySlot
	gen   uint32
	next  []int32 // next[p] = the position after p in its key's chain, or -1
}

type keySlot struct {
	key        matchKey
	gen        uint32
	head, tail int32
}

// reset empties the table and sizes it for n pushes at a load factor of at
// most one half.
func (kt *keyTable) reset(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	kt.gen++
	if cap(kt.slots) < size || kt.gen == 0 {
		kt.slots = make([]keySlot, size)
		kt.gen = 1
	}
	kt.slots = kt.slots[:size]
	kt.next = resize(kt.next, n)
}

func (kt *keyTable) mask() int { return len(kt.slots) - 1 }

// push appends source position p to k's chain. All pushes of a pass come
// before its first pop.
func (kt *keyTable) push(k matchKey, p int) {
	kt.next[p] = -1
	for h := k.hash() & kt.mask(); ; h = (h + 1) & kt.mask() {
		s := &kt.slots[h]
		if s.gen != kt.gen {
			*s = keySlot{key: k, gen: kt.gen, head: int32(p), tail: int32(p)}
			return
		}
		if s.key == k {
			kt.next[s.tail] = int32(p)
			s.tail = int32(p)
			return
		}
	}
}

// pop removes and returns the oldest source position pushed under k, or -1
// if there is none. It never inserts.
func (kt *keyTable) pop(k matchKey) int {
	for h := k.hash() & kt.mask(); ; h = (h + 1) & kt.mask() {
		s := &kt.slots[h]
		if s.gen != kt.gen {
			return -1
		}
		if s.key == k {
			p := s.head
			if p >= 0 {
				s.head = kt.next[p]
			}
			return int(p)
		}
	}
}

// hash mixes every key field with a multiply-xorshift step.
func (k matchKey) hash() int {
	const m = 0x9E3779B97F4A7C15
	h := k.weights
	for _, v := range [...]int{k.shape.KernelH, k.shape.KernelW, k.shape.InChannels, k.shape.OutChannels, k.shape.Stride} {
		h = (h ^ uint64(v)) * m
		h ^= h >> 29
	}
	return int(h >> 1)
}

// topoOrder returns a topological order, falling back to ID order if the
// graph is (unexpectedly) cyclic; planners must not fail on zoo output,
// which is always validated acyclic.
func topoOrder(g *model.Graph) []int {
	order, err := g.TopoSort()
	if err != nil {
		order = make([]int, g.NumOps())
		for i := range order {
			order[i] = i
		}
	}
	return order
}
