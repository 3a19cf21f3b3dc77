package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/fanout"
)

// TestFanoutSmoke runs the burst experiment once and checks the invariants
// that must hold at any scale: the pipelined tree reaches target warmth
// sooner than the independent baseline, the crash pair re-parents and still
// completes, and the double-run determinism proof passes.
func TestFanoutSmoke(t *testing.T) {
	res := Fanout(Options{Seed: 1}, fanout.Config{})
	if !res.Deterministic {
		t.Error("second same-seed tree-crash run diverged")
	}
	if res.TargetWarm < 16 {
		t.Fatalf("target warm %d below the N>=16 gate", res.TargetWarm)
	}
	for _, run := range []FanoutRun{res.Tree, res.Independent, res.TreeCrash, res.IndependentCrash} {
		if run.Served == 0 {
			t.Errorf("%s run served nothing", run.Mode)
		}
		if run.Stats.Trees != 1 {
			t.Errorf("%s run grew %d trees, want 1", run.Mode, run.Stats.Trees)
		}
	}
	if res.Tree.TimeToWarmMS <= 0 || res.Tree.TimeToWarmMS >= res.Independent.TimeToWarmMS {
		t.Errorf("tree time-to-%d-warm %.1fms not below independent %.1fms",
			res.TargetWarm, res.Tree.TimeToWarmMS, res.Independent.TimeToWarmMS)
	}
	if res.TreeCrash.Stats.DonorCrashes == 0 || res.TreeCrash.Stats.Reparents == 0 {
		t.Errorf("crash run exercised no re-parenting: %+v", res.TreeCrash.Stats)
	}
	if res.TreeCrash.Stats.TreesCompleted != 1 {
		t.Errorf("crashed tree never reached %d warm: %+v", res.TargetWarm, res.TreeCrash.Stats)
	}
	if res.TreeCrash.Goodput < res.IndependentCrash.Goodput {
		t.Errorf("crashed tree goodput %.4f below independent %.4f",
			res.TreeCrash.Goodput, res.IndependentCrash.Goodput)
	}
}

// TestFanoutRunsAreByteIdentical replays the whole experiment twice with the
// same seed and requires the marshaled results to match byte for byte — the
// `optimus-bench fanout` determinism contract.
func TestFanoutRunsAreByteIdentical(t *testing.T) {
	a, err := json.Marshal(Fanout(Options{Seed: 7}, fanout.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Fanout(Options{Seed: 7}, fanout.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two same-seed fanout runs marshaled differently")
	}
}

// TestFanoutArtifactGuard runs the burst experiment at full scale (seed 1,
// the default tree) and checks the acceptance gate: (a) time-to-N-warm for
// N>=16 improves over the independent baseline, (b) under donor-crash
// injection the tree re-parents, reaches N warm, and holds goodput at or
// above the baseline's, and (c) the double-run byte-identity proof passed.
func TestFanoutArtifactGuard(t *testing.T) {
	res := Fanout(Options{Seed: 1}, fanout.Config{})
	requireKeys(t, res, "seed", "target_warm", "crash_rates", "tree", "independent", "tree_crash", "independent_crash", "deterministic")
	// (c) determinism proof.
	if !res.Deterministic {
		t.Error("second same-seed tree-crash run diverged")
	}
	if res.TargetWarm < 16 {
		t.Errorf("target warm %d below the N>=16 gate", res.TargetWarm)
	}
	for _, run := range []FanoutRun{res.Tree, res.Independent, res.TreeCrash, res.IndependentCrash} {
		if run.Arrivals == 0 || run.Served == 0 {
			t.Errorf("%s run served nothing", run.Mode)
		}
		if run.Goodput <= 0 || run.Goodput > 1 {
			t.Errorf("%s goodput out of range: %v", run.Mode, run.Goodput)
		}
	}
	// (a) pipelined waves beat independent donation to N warm.
	if res.Tree.Stats.TreesCompleted != 1 || res.Tree.Stats.Recipients < res.TargetWarm {
		t.Errorf("zero-fault tree did not complete %d replicas: %+v", res.TargetWarm, res.Tree.Stats)
	}
	if res.Tree.TimeToWarmMS <= 0 || res.Tree.TimeToWarmMS >= res.Independent.TimeToWarmMS {
		t.Errorf("tree time-to-%d-warm %.1fms not below independent %.1fms",
			res.TargetWarm, res.Tree.TimeToWarmMS, res.Independent.TimeToWarmMS)
	}
	// (b) the crash pair: re-parenting fired, the tree still reached target
	// warmth, and goodput held at or above the independent baseline.
	if res.TreeCrash.Stats.DonorCrashes == 0 {
		t.Error("crash run injected no donor crashes")
	}
	if res.TreeCrash.Stats.Reparents == 0 {
		t.Error("crash run re-parented no orphans")
	}
	if res.TreeCrash.Stats.TreesCompleted != 1 {
		t.Errorf("crashed tree never reached %d warm: %+v", res.TargetWarm, res.TreeCrash.Stats)
	}
	if res.TreeCrash.Goodput < res.IndependentCrash.Goodput {
		t.Errorf("crashed tree goodput %.4f below independent %.4f",
			res.TreeCrash.Goodput, res.IndependentCrash.Goodput)
	}
}
