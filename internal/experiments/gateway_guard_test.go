package experiments

import "testing"

// checkGatewayGates asserts the acceptance gates on a result, at quick
// (smoke) or full (guard) scale: (a) ≥2× aggregate simulated throughput at 4
// gateways versus 1, (b) the shared plan cache's hit ratio at or above the
// isolated baseline's with no more pairs planned, and (c) the double-run
// byte-identity proof.
func checkGatewayGates(t *testing.T, res GatewayResult, label string) {
	t.Helper()
	if !res.Deterministic {
		t.Errorf("%s: same-seed reruns diverged", label)
	}
	if res.ScaleX4 < 2 {
		t.Errorf("%s: 4-gateway scale %.2fx below the ≥2x gate", label, res.ScaleX4)
	}
	if len(res.Scale) != len(GatewayScaleGateways) {
		t.Fatalf("%s: %d scale points, want %d", label, len(res.Scale), len(GatewayScaleGateways))
	}
	for i, pt := range res.Scale {
		if pt.Gateways != GatewayScaleGateways[i] {
			t.Errorf("%s: scale point %d is %d gateways, want %d", label, i, pt.Gateways, GatewayScaleGateways[i])
		}
		if pt.Served != res.Requests {
			t.Errorf("%s: %d gateways served %d of %d requests", label, pt.Gateways, pt.Served, res.Requests)
		}
		if pt.Gateways > 1 && pt.Forwards == 0 {
			t.Errorf("%s: %d gateways forwarded nothing — routing never exercised", label, pt.Gateways)
		}
		if pt.Gateways == 1 && pt.Forwards != 0 {
			t.Errorf("%s: single gateway forwarded %d requests", label, pt.Forwards)
		}
		if pt.SimReqPerSec <= 0 {
			t.Errorf("%s: %d gateways report %.2f req/s", label, pt.Gateways, pt.SimReqPerSec)
		}
	}
	if res.Shared.HitRatio < res.Isolated.HitRatio {
		t.Errorf("%s: shared hit ratio %.4f below isolated %.4f",
			label, res.Shared.HitRatio, res.Isolated.HitRatio)
	}
	if res.Shared.Planned > res.Isolated.Planned {
		t.Errorf("%s: shared planned %d pairs, isolated only %d — sharing increased planning",
			label, res.Shared.Planned, res.Isolated.Planned)
	}
	if res.Shared.Planned == 0 {
		t.Errorf("%s: shared run planned nothing — the demand-driven trace never hit the transform path", label)
	}
	if res.Shared.Remote == 0 {
		t.Errorf("%s: shared run pulled nothing — the cross-gateway loader never fired", label)
	}
	if res.Isolated.Remote != 0 {
		t.Errorf("%s: isolated run recorded %d pulls", label, res.Isolated.Remote)
	}
}

// TestGatewaySmoke runs the experiment once at quick scale and checks the
// gates hold on a live run.
func TestGatewaySmoke(t *testing.T) {
	res := Gateway(Options{Seed: 1, Quick: true})
	checkGatewayGates(t, res, "smoke")
}

// TestGatewayArtifactGuard runs the experiment at full scale (seed 1) and
// checks the required keys and the acceptance gates.
func TestGatewayArtifactGuard(t *testing.T) {
	res := Gateway(Options{Seed: 1})
	requireKeys(t, res, "seed", "vnodes", "models", "requests", "scale", "scale_x4", "shared", "isolated", "deterministic")
	checkGatewayGates(t, res, "full")
}
