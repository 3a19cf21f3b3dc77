package planner

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/metaop"
)

// FuzzPlanApply fuzzes the meta-operator executor with real planner output
// and corrupted variants of it. For any seeded graph pair and algorithm the
// plan must apply cleanly and reproduce the destination model; for mutated
// plans Apply may reject the input but must never panic and never mutate the
// source graph. Runs from its seed corpus under plain `go test` and explores
// further under `go test -fuzz=FuzzPlanApply`.
func FuzzPlanApply(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0), uint16(0))
	f.Add(int64(3), int64(4), uint8(1), uint16(7))
	f.Add(int64(5), int64(6), uint8(2), uint16(0xffff))
	f.Add(int64(7), int64(7), uint8(0), uint16(123))
	f.Add(int64(42), int64(9), uint8(1), uint16(3001))
	prof := cost.CPU()
	est := cost.Exact(prof)

	f.Fuzz(func(t *testing.T, seedA, seedB int64, algo uint8, mut uint16) {
		src := randomGraph("src", seedA, 10)
		dst := randomGraph("dst", seedB, 10)
		if src.Validate() != nil || dst.Validate() != nil {
			t.Skip("generator produced an invalid graph")
		}
		a := Algorithm(algo % 3)
		if a == AlgoBrute && src.NumOps()+dst.NumOps() > bruteForceLimit {
			// Brute force only accepts tiny matrices; fall back to the other
			// exact solver so every input still exercises Apply.
			a = AlgoHungarian
		}
		p := New(est, a).Plan(src, dst)

		srcBefore := src.Clone()
		got, _, err := metaop.Apply(prof, p, src, dst)
		if err != nil {
			t.Fatalf("%v plan failed to apply: %v", a, err)
		}
		if !got.Equal(dst) {
			t.Fatalf("%v plan did not reproduce the destination model", a)
		}
		if !src.Equal(srcBefore) {
			t.Fatal("Apply mutated the source graph")
		}

		// Corrupt one step of a deep-copied plan: Apply must reject malformed
		// plans with an error (or tolerate semantically harmless edits) but
		// must never panic, never accept a plan that realizes a wrong graph,
		// and must still leave src untouched.
		if len(p.Steps) == 0 {
			return
		}
		cp := *p
		cp.Steps = append([]metaop.Step(nil), p.Steps...)
		i := int(mut) % len(cp.Steps)
		s := &cp.Steps[i]
		switch mut % 6 {
		case 0:
			s.DstID = int32(mut) // likely out of range
		case 1:
			s.SrcID = -2 - int32(mut%7) // dangling source reference
		case 2:
			s.Kind = metaop.Kind(250) // unknown kind
		case 3:
			cp.Steps = append(cp.Steps, cp.Steps[i]) // duplicated step
		case 4:
			s.EdgeFrom, s.EdgeTo = int32(mut%31), int32(mut%17) // bogus wiring
		case 5:
			if n := int32(dst.NumOps()); s.DstID >= 0 && n > 1 {
				s.DstID = (s.DstID + 1 + int32(mut/6)%(n-1)) % n // another in-range slot
			}
		}
		got, _, err = metaop.Apply(prof, &cp, src, dst)
		if err == nil && !got.Equal(dst) {
			t.Fatal("Apply accepted a corrupted plan that realizes a wrong graph")
		}
		if !src.Equal(srcBefore) {
			t.Fatal("Apply of a corrupted plan mutated the source graph")
		}
	})
}

// FuzzPlanTruncated drops a suffix of the plan's steps: the executor must
// detect the hole (unrealized destination slot or unbalanced edge diff)
// rather than silently completing the transformation.
func FuzzPlanTruncated(f *testing.F) {
	f.Add(int64(1), int64(2), uint16(1))
	f.Add(int64(8), int64(3), uint16(2))
	prof := cost.CPU()
	est := cost.Exact(prof)

	f.Fuzz(func(t *testing.T, seedA, seedB int64, cut uint16) {
		src := randomGraph("src", seedA, 10)
		dst := randomGraph("dst", seedB, 10)
		p := New(est, AlgoGroup).Plan(src, dst)
		if p.LoadFromScratch || len(p.Steps) == 0 {
			t.Skip("nothing to truncate")
		}
		keep := int(cut) % len(p.Steps)
		cp := *p
		cp.Steps = append([]metaop.Step(nil), p.Steps[:keep]...)
		got, _, err := metaop.Apply(prof, &cp, src, dst)
		if err == nil && !got.Equal(dst) {
			t.Fatalf("truncated plan (%d of %d steps) applied to a wrong graph without error",
				keep, len(p.Steps))
		}
	})
}
