package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// TestQuickRunsEmitEveryMetric runs each workload at quick size, untraced
// and traced, and requires exactly the defined metrics, each finite and
// with its unit, with every output check passing.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out, err := run(options{workload: w, seed: 3, seconds: 1, trace: traced, quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(out.failures) > 0 {
					t.Fatalf("checks failed: %v", out.failures)
				}
				if out.attempted < 1 || out.failed != 0 {
					t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(out.metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(out.metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v, not finite", d.name, m.Value)
					case m.Unit == "" || m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if traced && len(out.spans.selfTimes()) == 0 {
					t.Error("traced run recorded no spans")
				}
				if traced && w != "serve-trace" {
					for _, n := range servingOnly {
						if v := out.metrics[n].Value; v != 0 {
							t.Errorf("serving-only metric %s = %v on a replay", n, v)
						}
					}
				}
			})
		}
	}
}

// TestEndToEndMetricsNeverZero pins the end-to-end metrics away from zero
// on every workload: a zero could not show a relative regression.
func TestEndToEndMetricsNeverZero(t *testing.T) {
	for _, w := range workloadNames {
		out, err := run(options{workload: w, seed: 5, seconds: 1, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for n, m := range out.metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v", w, n, m.Value)
			}
		}
	}
}

func TestCheckAccounting(t *testing.T) {
	if err := checkAccounting(100, virtualSummary{Served: 99, Dropped: 1}); err != nil {
		t.Errorf("balanced replay rejected: %v", err)
	}
	if err := checkAccounting(100, virtualSummary{Served: 98, Dropped: 1}); err == nil {
		t.Error("a lost arrival passed the accounting check")
	}
}

func TestCheckSameSummary(t *testing.T) {
	a := virtualSummary{Served: 10, Mean: time.Second, Kinds: [8]int{7, 2, 1}}
	if err := checkSameSummary(a, a); err != nil {
		t.Errorf("identical summaries rejected: %v", err)
	}
	b := a
	b.Kinds[2]++
	if err := checkSameSummary(a, b); err == nil {
		t.Error("a diverged start-kind count passed the identity check")
	}
	c := a
	c.Tail++
	if err := checkSameSummary(a, c); err == nil {
		t.Error("a diverged tail latency passed the identity check")
	}
}

func TestCheckResponse(t *testing.T) {
	if err := checkResponse(200, "transform", nil); err != nil {
		t.Errorf("good response rejected: %v", err)
	}
	for _, tc := range []struct {
		status int
		kind   string
		err    error
	}{
		{503, "warm", nil},
		{200, "lukewarm", nil},
		{200, "", errors.New("unexpected EOF")},
	} {
		if err := checkResponse(tc.status, tc.kind, tc.err); err == nil {
			t.Errorf("response %+v passed the check", tc)
		}
	}
}

func TestCheckServed(t *testing.T) {
	if err := checkServed(100, 0, 100, nil); err != nil {
		t.Errorf("clean session rejected: %v", err)
	}
	if err := checkServed(100, 0, 99, nil); err == nil {
		t.Error("a request-count mismatch passed the check")
	}
	if err := checkServed(100, 1, 100, []string{"status 404"}); err == nil {
		t.Error("a failed request passed the check")
	}
}

// TestGatewayRunFlagsUnknownFunction feeds the serving pipeline a request
// for a function that was never registered: the 404 must surface as a
// failed request and fail the check.
func TestGatewayRunFlagsUnknownFunction(t *testing.T) {
	sp := serveSpec(true)
	fns := sp.catalog()
	names := functionNames(fns)
	tr := &workload.Trace{Duration: time.Hour, Requests: []workload.Request{
		{Function: names[0], At: time.Second},
		{Function: "no-such-model", At: 2 * time.Second},
		{Function: names[1], At: 3 * time.Second},
	}}
	g, err := runGateway(fns, tr, sp.clusterConfig(names, policy.Optimus{}, 1), false, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.failed != 1 {
		t.Fatalf("failed = %d, want 1 (failures %v)", g.failed, g.failures)
	}
	if err := checkServed(g.sent, g.failed, g.statsRequests, g.failures); err == nil {
		t.Error("a session with a 404 passed the check")
	}
}

func TestUndefinedMetricFailsTheRun(t *testing.T) {
	out := newOutcome()
	out.set("no_such_metric", 1)
	if len(out.failures) != 1 {
		t.Fatalf("failures = %v, want one", out.failures)
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "serve-trace", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "serve-trace" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "0"}, {"extra"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	if _, err := specFor("no-such-workload", true); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSelfTimes checks self time on a hand-built tree: a parent of 10 ms
// with two overlapping children covering [2, 6) ms and a sampled child
// that must not count.
func TestSelfTimes(t *testing.T) {
	r := newSpanRecorder()
	ms := time.Millisecond
	r.spans = []span{
		{Name: "job", ID: 1, Start: 0, End: 10 * ms},
		{Name: "a", ID: 2, Parent: 1, Start: 2 * ms, End: 5 * ms},
		{Name: "b", ID: 3, Parent: 1, Start: 4 * ms, End: 6 * ms},
		{Name: "s", ID: 4, Parent: 1, Start: 7 * ms, End: 8 * ms, Sampled: true},
	}
	got := map[string]selfTime{}
	for _, s := range r.selfTimes() {
		got[s.Name] = s
	}
	if got["job"].Self != 6*ms || got["job"].Total != 10*ms {
		t.Errorf("job = %+v, want self 6ms of 10ms", got["job"])
	}
	if got["a"].Self != 3*ms || got["b"].Self != 2*ms {
		t.Errorf("children = %+v %+v", got["a"], got["b"])
	}
	if _, ok := got["s"]; ok {
		t.Error("sampled span entered the self-time table")
	}
}

// TestChromeTrace checks the traced run's output opens as trace-event
// JSON: complete events with microsecond times and a layer category.
func TestChromeTrace(t *testing.T) {
	r := newSpanRecorder()
	root := r.open("job", 0)
	r.close(r.open("workload.gen", root))
	r.add("policy.serve", root, -1, 0, time.Now(), time.Microsecond)
	r.close(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeChrome(path, map[string]string{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Cat != strings.SplitN(e.Name, ".", 2)[0] {
			t.Errorf("bad event %+v", e)
		}
	}
}

func TestEnvironmentBlock(t *testing.T) {
	out := newOutcome()
	out.params["requests"] = 10
	env := environment(options{workload: "replay-scale", seed: 4, commit: "abc"}, out)
	if env.GoVersion != runtime.Version() || env.NProc < 1 || env.GOMAXPROCS < 1 || env.CPUModel == "" {
		t.Errorf("env = %+v", env)
	}
	if env.Commit != "abc" || env.Seed != 4 || env.Params["requests"] != 10 {
		t.Errorf("env = %+v", env)
	}
}
