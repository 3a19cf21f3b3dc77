package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simulate"
)

// TestScaleSmoke runs the scale benchmark at a tiny request count and checks
// the invariants that must hold at any scale: both equality proofs pass, the
// windowed replay did not fall back and split windows into one partition
// per node group (the placement is built to partition), and the indexed
// engine allocates less per request than the scanning baseline.
func TestScaleSmoke(t *testing.T) {
	res := Scale(Options{Quick: true, Seed: 5}, 4000, 4, 8)
	if res.Requests == 0 {
		t.Fatal("empty trace")
	}
	if !res.IndexedMatchesScan {
		t.Error("indexed replay diverged from the scanning baseline")
	}
	if !res.WindowedMatchesSerial {
		t.Error("windowed replay summary diverged from serial")
	}
	if res.WindowedSerialReason != "" {
		t.Errorf("expected windowed replay, fell back serially: %s", res.WindowedSerialReason)
	}
	if res.MaxPartitions != res.Groups {
		t.Errorf("expected %d partitions (one per group), got %d", res.Groups, res.MaxPartitions)
	}
	if res.IndexedAllocsPerReq >= res.SerialAllocsPerReq {
		t.Errorf("indexed allocs/req %.1f not below scan baseline %.1f",
			res.IndexedAllocsPerReq, res.SerialAllocsPerReq)
	}
	// Record-level identity on the same fixture: the cross-check compares
	// every window's record multiset with a lockstep serial oracle and
	// panics on a divergence.
	fx := scaleCluster(Options{Quick: true, Seed: 5}.withDefaults(), 4000, 4)
	cfg := fx.cfg
	cfg.CrossCheckWindows = true
	sum, rep, err := simulate.RunWindowed(cfg, fx.fns, fx.trace.Cursor(), fx.trace.Duration, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Windowed() || sum.Count() != res.Requests {
		t.Errorf("cross-checked windowed replay: %d of %d requests, report %+v", sum.Count(), res.Requests, rep)
	}
}

// TestScaleArtifactGuard validates the checked-in BENCH_sim_scale.json: the
// required keys are present, both equality proofs passed when it was
// generated, and the indexed engine was not slower than the scan baseline.
// (The ≥3× total-speedup acceptance bar is asserted at generation time; a
// CI runner's wall clock is too noisy to re-enforce it here.)
func TestScaleArtifactGuard(t *testing.T) {
	path := filepath.Join("..", "..", BenchScaleFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing artifact %s (run `make bench-scale`): %v", BenchScaleFile, err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	for _, k := range []string{
		"requests", "serial_ms", "indexed_ms", "windowed_ms",
		"speedup_indexed", "speedup_windowed", "speedup_total",
		"serial_allocs_per_req", "indexed_allocs_per_req", "windowed_allocs_per_req",
		"indexed_matches_scan", "windowed_matches_serial", "max_partitions",
	} {
		if _, ok := keys[k]; !ok {
			t.Errorf("artifact missing key %q", k)
		}
	}
	var res ScaleBench
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.IndexedMatchesScan {
		t.Error("artifact records an indexed/scan divergence")
	}
	if !res.WindowedMatchesSerial {
		t.Error("artifact records a windowed/serial summary divergence")
	}
	if res.SpeedupIndexed < 1.0 {
		t.Errorf("indexed replay slower than the scan baseline: %.2fx", res.SpeedupIndexed)
	}
	if res.Requests < 500_000 {
		t.Errorf("artifact generated from only %d requests; want >= 500000", res.Requests)
	}
	if res.WindowedSerialReason != "" {
		t.Errorf("artifact's windowed replay fell back to serial: %s", res.WindowedSerialReason)
	}
	if res.MaxPartitions != res.Groups {
		t.Errorf("artifact's windowed replay split into at most %d partitions; want one per group (%d)",
			res.MaxPartitions, res.Groups)
	}
}
