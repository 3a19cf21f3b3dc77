package simulate_test

import (
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

func newOnline(t *testing.T, slots int, names ...string) *simulate.Online {
	t.Helper()
	return simulate.NewOnline(simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             1,
		ContainersPerNode: slots,
	}, testFunctions(t, names...))
}

func TestOnlineLifecycle(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet", "resnet34-imagenet")

	rec, err := o.Invoke("resnet18-imagenet", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != metrics.StartCold {
		t.Errorf("first invoke = %v", rec.Kind)
	}
	// Well after completion: warm.
	rec2, err := o.Invoke("resnet18-imagenet", rec.End+time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Kind != metrics.StartWarm {
		t.Errorf("second invoke = %v", rec2.Kind)
	}
	if o.Collector().Len() != 2 {
		t.Errorf("collector has %d records", o.Collector().Len())
	}
}

func TestOnlineWaitsWhenBusy(t *testing.T) {
	o := newOnline(t, 1, "resnet18-imagenet")
	rec, err := o.Invoke("resnet18-imagenet", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second request arrives while the only container is busy: it must wait
	// until the first completes.
	rec2, err := o.Invoke("resnet18-imagenet", rec.End/2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Wait == 0 {
		t.Error("second invoke should have waited")
	}
	if rec2.Start != rec.End {
		t.Errorf("second invoke started at %v, want %v", rec2.Start, rec.End)
	}
}

func TestOnlineClockMonotone(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet")
	if _, err := o.Invoke("resnet18-imagenet", time.Hour); err != nil {
		t.Fatal(err)
	}
	// A stale timestamp is clamped forward, never backwards.
	rec, err := o.Invoke("resnet18-imagenet", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Arrival < time.Hour {
		t.Errorf("clock went backwards: %v", rec.Arrival)
	}
}

func TestOnlineAddRemoveFunction(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet")
	if _, err := o.Invoke("vgg16-imagenet", 0); err == nil {
		t.Fatal("unknown function accepted")
	}
	fns := testFunctions(t, "vgg16-imagenet")
	o.AddFunction(fns[0])
	if _, err := o.Invoke("vgg16-imagenet", 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := o.Function("vgg16-imagenet"); !ok || got != fns[0] {
		t.Error("Function lookup failed")
	}
	if len(o.Functions()) != 2 {
		t.Errorf("Functions = %v", o.Functions())
	}
	o.RemoveFunction("vgg16-imagenet")
	if _, err := o.Invoke("vgg16-imagenet", time.Minute); err == nil {
		t.Fatal("removed function still invocable")
	}
}

// TestFunctionsSorted is the regression test for the map-iteration-order
// leak optimus-lint's maprange checker found in Online.Functions: the
// listing feeds reports and API responses, so it must come back in sorted
// order no matter what order functions were registered in.
func TestFunctionsSorted(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet")
	model := testFunctions(t, "resnet18-imagenet")[0].Model
	for _, name := range []string{"zulu", "mike", "alpha", "quebec", "echo", "victor", "bravo", "hotel"} {
		o.AddFunction(&simulate.Function{Name: name, Model: model})
	}
	got := o.Functions()
	if len(got) != 9 {
		t.Fatalf("Functions() returned %d names, want 9", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Errorf("Functions() not sorted: %v", got)
	}
}

// TestOnlineMatchesReplay is the differential check between the two serving
// paths. Both take the same serve decision (policy, verification, online
// profiling, supervision, container grant, slow windows), so on a
// queue-free trace serial Online.Invoke returns exactly the records the
// trace engine keeps, in the same order, with the same fault tallies and
// health summary.
func TestOnlineMatchesReplay(t *testing.T) {
	names := []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
		"vgg11-imagenet", "densenet121-imagenet"}
	fns := testFunctions(t, names...)
	cases := []struct {
		name string
		cfg  simulate.Config
	}{
		{"clean", simulate.Config{VerifyTransforms: true}},
		{"gray", simulate.Config{
			Faults: faults.Rates{Transform: 0.1, Flaky: 0.02, Bandwidth: 0.05,
				Hang: 0.1, Load: 0.1, Slow: 0.02},
			WatchdogFactor: 2,
		}},
		{"crash-outage", simulate.Config{Faults: faults.Rates{Crash: 0.01, Outage: 0.002}}},
		{"health", simulate.Config{
			Faults: faults.Rates{Slow: 0.02, Hang: 0.1},
			Health: healthConfig(),
		}},
		{"online-profiling", simulate.Config{OnlineProfiling: 0.2, EstimatorErr: 0.5}},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Policy, cfg.Nodes, cfg.ContainersPerNode, cfg.Seed = policy.Optimus{}, 2, 3, int64(i+1)
			tr := workload.Poisson(names, 0.02, 6*time.Hour, int64(10+i))
			sim := simulate.New(cfg, fns)
			col, err := sim.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if col.KindCounts()[metrics.StartTransform] == 0 || col.Faults.Any() != cfg.Faults.Enabled() {
				t.Fatalf("fixture exercises too little: kinds %v, faults %+v", col.KindCounts(), col.Faults)
			}
			on := simulate.NewOnline(cfg, fns)
			var got []metrics.Record
			for _, r := range tr.Requests {
				rec, err := on.Invoke(r.Function, r.At)
				if errors.Is(err, simulate.ErrRequestDropped) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rec)
			}
			want := col.Records()
			if len(got) != len(want) {
				t.Fatalf("Online served %d records, replay %d", len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("record %d of %d:\n online %+v\n replay %+v", j, len(want), got[j], want[j])
				}
			}
			if f := on.Collector().Faults; f != col.Faults {
				t.Errorf("fault tallies differ:\n online %+v\n replay %+v", f, col.Faults)
			}
			if h, want := on.Health().Summarize(), sim.Health().Summarize(); h != want {
				t.Errorf("health summaries differ:\n online %+v\n replay %+v", h, want)
			}
		})
	}
}
