package experiments

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSoakSmoke runs the chaos soak at the quick horizon and checks the
// invariants that must hold at any scale: the resilient mode's warm-hit
// ratio does not regress below the bounded-retry baseline's, the resilience
// machinery actually fires, and the double-run determinism proof passes.
func TestSoakSmoke(t *testing.T) {
	res := Soak(Options{Quick: true, Seed: 1}, 0)
	if res.Baseline.Served == 0 || res.Resilient.Served == 0 {
		t.Fatal("soak served nothing")
	}
	if !res.Deterministic {
		t.Error("second same-seed resilient run diverged")
	}
	if res.Resilient.HitRatio < res.Baseline.HitRatio {
		t.Errorf("resilient hit ratio %.4f below baseline %.4f",
			res.Resilient.HitRatio, res.Baseline.HitRatio)
	}
	if res.Resilient.Faults.HedgedTransforms == 0 {
		t.Error("resilient soak never hedged a hung transform")
	}
	if res.Resilient.Faults.BackoffRetries == 0 {
		t.Error("resilient soak never delayed a retry")
	}
	if res.Baseline.Faults.HedgedTransforms != 0 || res.Baseline.Faults.BackoffRetries != 0 {
		t.Errorf("baseline soak used resilience machinery: %+v", res.Baseline.Faults)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

// TestSoakRunsAreByteIdentical replays the whole soak experiment twice with
// the same seed and requires the marshaled results to match byte for byte —
// the `optimus-bench soak` determinism contract.
func TestSoakRunsAreByteIdentical(t *testing.T) {
	a, err := json.Marshal(Soak(Options{Quick: true, Seed: 7}, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Soak(Options{Quick: true, Seed: 7}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two same-seed soak runs marshaled differently")
	}
}

// TestSoakArtifactGuard runs the soak at full scale (a day, seed 1) and
// checks its bars: required keys present, the determinism proof passed, and
// the resilient mode recovered at least the baseline's hit ratio without
// losing availability.
func TestSoakArtifactGuard(t *testing.T) {
	res := Soak(Options{Seed: 1}, 24*time.Hour)
	requireKeys(t, res, "seed", "horizon_ms", "rates", "baseline", "resilient", "deterministic")
	if !res.Deterministic {
		t.Error("second same-seed resilient run diverged")
	}
	for _, run := range []SoakRun{res.Baseline, res.Resilient} {
		if run.Arrivals == 0 || run.Served == 0 {
			t.Errorf("%s run served nothing", run.Mode)
		}
		if run.Availability <= 0 || run.Availability > 1 {
			t.Errorf("%s availability out of range: %v", run.Mode, run.Availability)
		}
		if run.GoodputDuringFault <= 0 || run.GoodputDuringFault > 1 {
			t.Errorf("%s goodput-during-fault out of range: %v", run.Mode, run.GoodputDuringFault)
		}
	}
	if res.Resilient.HitRatio < res.Baseline.HitRatio {
		t.Errorf("resilient hit ratio %.4f below baseline %.4f",
			res.Resilient.HitRatio, res.Baseline.HitRatio)
	}
	if res.Resilient.Availability < res.Baseline.Availability {
		t.Errorf("resilient availability %.4f below baseline %.4f",
			res.Resilient.Availability, res.Baseline.Availability)
	}
	if res.Resilient.MTTRMS <= 0 || res.Resilient.Episodes == 0 {
		t.Error("resilient run measured no recovery episodes")
	}
	if res.Resilient.Faults.HedgedTransforms == 0 || res.Resilient.Faults.BackoffRetries == 0 {
		t.Error("resilient run never exercised hedging/backoff")
	}
}

// TestRecoveryArtifactGuard runs the supervision sweep at full scale (a
// day, seed 1, the default rates) and checks its bars: base and supervised
// rows per rate, post-restore hit ratio and MTTR recorded, and at the top
// fault rate the supervised configuration must beat the base one on both
// mean latency and MTTR.
func TestRecoveryArtifactGuard(t *testing.T) {
	res := Recovery(Options{Seed: 1}, nil, 24*time.Hour)
	if len(res.Points) < 4 || len(res.Points)%2 != 0 {
		t.Fatalf("sweep has %d points, want base+supervised pairs", len(res.Points))
	}
	for i, p := range res.Points {
		if want := i%2 == 1; p.Supervised != want {
			t.Fatalf("point %d supervised = %v, want %v", i, p.Supervised, want)
		}
		if p.Served == 0 {
			t.Errorf("point %d served nothing", i)
		}
		if p.PostRestoreHit <= 0 || p.PostRestoreHit > 1 {
			t.Errorf("point %d post-restore hit out of range: %v", i, p.PostRestoreHit)
		}
	}
	base, sup := res.Points[len(res.Points)-2], res.Points[len(res.Points)-1]
	if base.Rate != sup.Rate {
		t.Fatalf("last pair rates differ: %v vs %v", base.Rate, sup.Rate)
	}
	if base.Rate == 0 {
		t.Fatal("sweep never injected faults")
	}
	if sup.Mean >= base.Mean {
		t.Errorf("supervised mean %v not below base %v at rate %v", sup.Mean, base.Mean, sup.Rate)
	}
	if sup.MTTRMS >= base.MTTRMS {
		t.Errorf("supervised MTTR %.0fms not below base %.0fms at rate %v",
			sup.MTTRMS, base.MTTRMS, sup.Rate)
	}
	if sup.Faults.WatchdogCancels == 0 {
		t.Error("supervised top-rate run cancelled no hangs")
	}
}
