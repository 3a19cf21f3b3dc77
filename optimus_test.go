package optimus

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTransformerRoundTrip(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	img := Imgclsmob()
	src := img.MustGet("resnet50-imagenet")
	dst := img.MustGet("resnet101-imagenet")

	plan := tf.Plan(src, dst)
	if plan.LoadFromScratch {
		t.Fatal("resnet50→resnet101 should not hit the safeguard")
	}
	got, took, err := tf.Transform(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(dst) {
		t.Fatal("transform result mismatch")
	}
	if took >= tf.LoadCost(dst) {
		t.Errorf("transform (%v) not cheaper than load (%v)", took, tf.LoadCost(dst))
	}
	// Plans are cached: second Plan returns the same pointer.
	if tf.Plan(src, dst) != plan {
		t.Error("plan cache miss on repeat")
	}
}

func TestTransformerCosts(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	m := Imgclsmob().MustGet("vgg16-imagenet")
	if tf.ColdStartCost(m) <= tf.LoadCost(m) {
		t.Error("cold start must include sandbox init on top of loading")
	}
	if tf.ComputeCost(m) <= 0 {
		t.Error("compute cost must be positive")
	}
	gpu := NewTransformer(GPU, AlgoGroup)
	if gpu.ColdStartCost(m) <= tf.ColdStartCost(m) {
		t.Error("GPU cold start should exceed CPU (§8.5)")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	img := Imgclsmob()
	sys := NewSystem(SystemConfig{
		Nodes:             2,
		ContainersPerNode: 2,
		Policy:            PolicyOptimus,
		VerifyTransforms:  true,
	})
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet"} {
		sys.MustRegister(n, img.MustGet(n))
	}
	tr := MixedPoissonTrace(sys.Functions(), 8*time.Hour, 7)
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Count() != tr.Len() {
		t.Fatalf("served %d of %d", rep.Metrics.Count(), tr.Len())
	}
	if rep.Verified == 0 {
		t.Error("no transformations verified")
	}
	if !strings.Contains(rep.Summary(), "requests") {
		t.Error("summary malformed")
	}
}

// TestSystemRunWindowedUsesGOMAXPROCS: the facade's windowed replay
// (SystemConfig.ReplayWindows) runs on GOMAXPROCS workers, parallelizes a
// partitioned placement (hash placement pins each function to one node) and
// matches the serial replay exactly.
func TestSystemRunWindowedUsesGOMAXPROCS(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one worker means serial fallback
	}
	img := Imgclsmob()
	build := func(windows int) *System {
		sys := NewSystem(SystemConfig{Nodes: 4, ContainersPerNode: 2, Policy: PolicyOptimus, ReplayWindows: windows})
		for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
			"vgg11-imagenet", "vgg16-imagenet", "densenet121-imagenet"} {
			sys.MustRegister(n, img.MustGet(n))
		}
		return sys
	}
	sys := build(16)
	tr := MixedPoissonTrace(sys.Functions(), 6*time.Hour, 5)
	win, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	w := win.Windowing
	if !w.Windowed() {
		t.Fatalf("windowed replay fell back to serial: %q", w.SerialReason)
	}
	if w.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d, want GOMAXPROCS = %d", w.Workers, runtime.GOMAXPROCS(0))
	}
	if w.ParallelWindows == 0 {
		t.Errorf("no window parallelized on a partitioned placement: %+v", w)
	}
	serial, err := build(0).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if *win.Metrics != *serial.Metrics {
		t.Errorf("windowed summary != serial summary:\n%s\n%s", win.Summary(), serial.Summary())
	}
}

// TestSystemKeepRecordsMatchesDefault: keeping records changes what a
// report retains, not what it says. On a faulted fixture (hang + watchdog,
// gray slow windows, health tracking, fan-out trees) the default
// constant-memory report and the KeepRecords report carry equal summaries
// and render identical fault and fan-out lines, and the kept records count
// every request. KeepRecords with ReplayWindows is rejected.
func TestSystemKeepRecordsMatchesDefault(t *testing.T) {
	img := Imgclsmob()
	names := []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "resnet101-imagenet",
		"vgg11-imagenet", "vgg13-imagenet", "vgg16-imagenet", "densenet121-imagenet"}
	run := func(keep bool) *Report {
		sys := NewSystem(SystemConfig{
			Nodes: 2, ContainersPerNode: 3, Policy: PolicyOptimus, Seed: 3,
			Faults:         FaultRates{Hang: 0.3, Slow: 0.02},
			WatchdogFactor: 2,
			Health:         HealthConfig{Enabled: true},
			Fanout:         FanoutConfig{Enabled: true, Threshold: 2},
			KeepRecords:    keep,
		})
		for _, n := range names {
			sys.MustRegister(n, img.MustGet(n))
		}
		tr := PoissonTrace(names, 0.2, 2*time.Hour, 9)
		rep, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	lean, kept := run(false), run(true)
	if lean.Records != nil {
		t.Error("default report retained records")
	}
	if *lean.Metrics != *kept.Metrics {
		t.Errorf("summaries differ:\n%s\n%s", lean.Summary(), kept.Summary())
	}
	for _, c := range []struct{ name, lean, kept string }{
		{"FaultSummary", lean.FaultSummary(), kept.FaultSummary()},
		{"FanoutSummary", lean.FanoutSummary(), kept.FanoutSummary()},
	} {
		if c.lean == "" || c.lean != c.kept {
			t.Errorf("%s: default %q, KeepRecords %q", c.name, c.lean, c.kept)
		}
	}
	for _, part := range []string{"watchdog-cancelled", "gray:", "health:"} {
		if !strings.Contains(kept.FaultSummary(), part) {
			t.Errorf("fault summary lacks %q: %s", part, kept.FaultSummary())
		}
	}
	if kept.Records.Len() != kept.Metrics.Count() {
		t.Errorf("Records.Len() = %d, Metrics.Count() = %d", kept.Records.Len(), kept.Metrics.Count())
	}

	both := NewSystem(SystemConfig{KeepRecords: true, ReplayWindows: 4})
	both.MustRegister(names[0], img.MustGet(names[0]))
	if _, err := both.Run(PoissonTrace(names[:1], 1, time.Hour, 1)); err == nil {
		t.Error("KeepRecords with ReplayWindows accepted")
	}
}

func TestSystemPolicies(t *testing.T) {
	img := Imgclsmob()
	names := []string{"resnet18-imagenet", "resnet50-imagenet", "vgg16-imagenet", "densenet121-imagenet"}
	tr := MixedPoissonTrace(names, 8*time.Hour, 3)
	means := map[PolicyName]time.Duration{}
	for _, p := range []PolicyName{PolicyOpenWhisk, PolicyPagurus, PolicyTetris, PolicyOptimus} {
		sys := NewSystem(SystemConfig{Nodes: 1, ContainersPerNode: 2, Policy: p})
		for _, n := range names {
			sys.MustRegister(n, img.MustGet(n))
		}
		rep, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		means[p] = rep.Metrics.MeanLatency()
	}
	if means[PolicyOptimus] >= means[PolicyOpenWhisk] {
		t.Errorf("optimus (%v) should beat openwhisk (%v)", means[PolicyOptimus], means[PolicyOpenWhisk])
	}
}

func TestSystemRegistrationErrors(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	if err := sys.Register("x", nil); err == nil {
		t.Error("nil model accepted")
	}
	m := Imgclsmob().MustGet("resnet18-imagenet")
	if err := sys.Register("x", m); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("x", m); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := NewSystem(SystemConfig{Policy: "bogus"})
	bad.MustRegister("x", m)
	if _, err := bad.Run(MixedPoissonTrace([]string{"x"}, time.Hour, 1)); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestSystemWithBalancer(t *testing.T) {
	img := Imgclsmob()
	sys := NewSystem(SystemConfig{Nodes: 2, ContainersPerNode: 2, UseBalancer: true})
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "vgg16-imagenet", "vgg19-imagenet"} {
		sys.MustRegister(n, img.MustGet(n))
	}
	tr := MixedPoissonTrace(sys.Functions(), 6*time.Hour, 5)
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Count() != tr.Len() {
		t.Fatal("balancer run dropped requests")
	}
}

func TestNASBenchModelFacade(t *testing.T) {
	m, err := NASBenchModel(1234)
	if err != nil {
		t.Fatal(err)
	}
	if m.Family != "nasbench" {
		t.Errorf("family = %q", m.Family)
	}
	if _, err := NASBenchModel(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestBERTSafeguardViaFacade(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	cnn := Imgclsmob().MustGet("resnet50-imagenet")
	bert := BERTZoo().MustGet("bert-base-uncased")
	plan := tf.Plan(cnn, bert)
	if !plan.LoadFromScratch {
		t.Error("CNN→transformer should hit the safeguard")
	}
	// Safeguarded transforms still work (by loading fresh).
	got, took, err := tf.Transform(cnn, bert)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(bert) || took != tf.LoadCost(bert) {
		t.Error("safeguard path wrong")
	}
}

func TestRNNZooFacade(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	rnn := RNNZoo()
	src := rnn.MustGet("lstm-2x512")
	dst := rnn.MustGet("lstm-2x256")
	got, took, err := tf.Transform(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(dst) {
		t.Fatal("RNN transform mismatch")
	}
	if took >= tf.LoadCost(dst) {
		t.Errorf("RNN size-ladder transform (%v) should beat load (%v)", took, tf.LoadCost(dst))
	}
}
