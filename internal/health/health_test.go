package health

import (
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		Enabled:            true,
		SuspectStrikes:     2,
		QuarantineStrikes:  2,
		ClearStreak:        3,
		QuarantineDuration: 10 * time.Second,
		DrainTimeout:       5 * time.Second,
	}
}

// failUntil drives failures into the node until it reaches the wanted state.
func failUntil(t *testing.T, tr *Tracker, node int, want State, now time.Duration) time.Duration {
	t.Helper()
	for i := 0; i < 100; i++ {
		if tr.State(node, now) == want {
			return now
		}
		tr.ObserveFailure(node, now)
		now += time.Second
	}
	t.Fatalf("node %d never reached %v (state %v)", node, want, tr.State(node, now))
	return now
}

func TestNilTrackerIsInert(t *testing.T) {
	var tr *Tracker
	tr.ObserveFailure(0, 0)
	tr.ObserveServed(0, 0, time.Second)
	tr.NoteDrained(0, 0)
	if tr.Avoid(0, 0) || tr.State(0, 0) != Healthy || tr.MTTR() != 0 {
		t.Fatal("nil tracker is not inert")
	}
	if New(Config{}, 4) != nil {
		t.Fatal("disabled config should return nil tracker")
	}
}

func TestFailureSignalLifecycle(t *testing.T) {
	tr := New(testConfig(), 2)
	now := time.Duration(0)

	// Sustained failures: healthy → suspect → quarantined.
	now = failUntil(t, tr, 0, Quarantined, now)
	if !tr.Avoid(0, now) {
		t.Fatal("quarantined node should be avoided")
	}
	if tr.Avoid(1, now) {
		t.Fatal("healthy node should not be avoided")
	}

	// Quarantine window elapses → draining (still avoided).
	now += 10 * time.Second
	if got := tr.State(0, now); got != Draining {
		t.Fatalf("after quarantine window: state %v, want draining", got)
	}
	if !tr.Avoid(0, now) {
		t.Fatal("draining node should be avoided")
	}

	// Drained → recovered (routable again, on probation).
	tr.NoteDrained(0, now)
	if got := tr.State(0, now); got != Recovered {
		t.Fatalf("after drain: state %v, want recovered", got)
	}
	if tr.Avoid(0, now) {
		t.Fatal("recovered node should route")
	}

	// Clean streak → healthy, closing the episode.
	for i := 0; i < 3; i++ {
		now += time.Second
		tr.ObserveServed(0, now, 10*time.Millisecond)
	}
	if got := tr.State(0, now); got != Healthy {
		t.Fatalf("after clean streak: state %v, want healthy", got)
	}
	eps := tr.Episodes()
	if len(eps) != 1 || eps[0].Node != 0 || eps[0].End <= eps[0].Start {
		t.Fatalf("episodes = %+v, want one well-formed episode for node 0", eps)
	}
	if tr.MTTR() != eps[0].End-eps[0].Start {
		t.Fatalf("MTTR %v != episode duration %v", tr.MTTR(), eps[0].End-eps[0].Start)
	}
	ws := tr.Windows(now)
	if len(ws) != 1 || ws[0].End <= ws[0].Start {
		t.Fatalf("windows = %+v, want one closed window", ws)
	}
	st := tr.Stats()
	if st.Suspects != 1 || st.Quarantines != 1 || st.Drains != 1 || st.Recoveries != 1 || st.Clears != 1 {
		t.Fatalf("stats = %+v, want one of each transition", st)
	}
}

func TestDrainTimeoutRecoversUndrainedNode(t *testing.T) {
	tr := New(testConfig(), 1)
	now := failUntil(t, tr, 0, Quarantined, 0)
	now += 10*time.Second + 5*time.Second // quarantine + drain timeout
	if got := tr.State(0, now); got != Recovered {
		t.Fatalf("after drain timeout: state %v, want recovered", got)
	}
}

func TestRecoveredRelapsesToSuspect(t *testing.T) {
	tr := New(testConfig(), 1)
	now := failUntil(t, tr, 0, Quarantined, 0)
	now += 10 * time.Second
	tr.NoteDrained(0, now)
	now = failUntil(t, tr, 0, Suspect, now)
	if len(tr.Episodes()) != 0 {
		t.Fatal("relapse must keep the episode open")
	}
	if tr.State(0, now) != Suspect {
		t.Fatal("relapsed node should be suspect")
	}
}

func TestLatencyOutlierFlagsNode(t *testing.T) {
	cfg := testConfig()
	cfg.MinObservations = 4
	tr := New(cfg, 5)
	now := time.Duration(0)
	// Nodes 1-4 set a fast cluster baseline; node 0 is a slow outlier.
	for i := 0; i < 20; i++ {
		now += time.Second
		for n := 1; n < 5; n++ {
			tr.ObserveServed(n, now, 10*time.Millisecond)
		}
		tr.ObserveServed(0, now, 500*time.Millisecond)
	}
	if got := tr.State(0, now); got == Healthy {
		t.Fatalf("slow outlier stayed healthy (node lat EWMA should exceed 3x cluster)")
	}
	for n := 1; n < 5; n++ {
		if got := tr.State(n, now); got != Healthy {
			t.Fatalf("baseline node %d state %v, want healthy", n, got)
		}
	}
}

func TestObserveOnlyNeverAvoids(t *testing.T) {
	cfg := testConfig()
	cfg.ObserveOnly = true
	tr := New(cfg, 1)
	now := failUntil(t, tr, 0, Quarantined, 0)
	if tr.Avoid(0, now) {
		t.Fatal("observe-only tracker must not steer routing")
	}
	if tr.State(0, now) != Quarantined {
		t.Fatal("observe-only tracker should still track state")
	}
}

func TestExportImportReconcilesState(t *testing.T) {
	tr := New(testConfig(), 3)
	now := failUntil(t, tr, 0, Quarantined, 0)
	now += 10 * time.Second // node 0 → draining
	if tr.State(0, now) != Draining {
		t.Fatal("setup: node 0 should be draining")
	}
	snaps := tr.Export()
	if len(snaps) != 3 || snaps[0].State != "draining" {
		t.Fatalf("export = %+v, want 3 snapshots with node 0 draining", snaps)
	}

	// Restore into a fresh tracker: the draining node must not come back
	// healthy, and must finish its drain-timeout from the restored instant.
	fresh := New(testConfig(), 3)
	fresh.Import(snaps, now)
	if got := fresh.State(0, now); got != Draining {
		t.Fatalf("restored state %v, want draining", got)
	}
	if !fresh.Avoid(0, now) {
		t.Fatal("restored draining node must stay avoided")
	}
	if got := fresh.State(0, now+5*time.Second); got != Recovered {
		t.Fatalf("restored node after drain timeout: %v, want recovered", got)
	}

	// Out-of-range snapshots are ignored.
	small := New(testConfig(), 1)
	small.Import(snaps, now)
	if small.State(0, now) != Draining {
		t.Fatal("in-range snapshot should restore")
	}

	// Unknown state names restore conservatively as suspect.
	odd := New(testConfig(), 1)
	odd.Import([]NodeSnapshot{{Node: 0, State: "exploded"}}, now)
	if got := odd.State(0, now); got != Suspect {
		t.Fatalf("unknown state restored as %v, want suspect", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Summary {
		tr := New(testConfig(), 4)
		now := time.Duration(0)
		for i := 0; i < 500; i++ {
			now += 100 * time.Millisecond
			node := i % 4
			if node == 2 && i%3 != 0 {
				tr.ObserveFailure(node, now)
			} else {
				tr.ObserveServed(node, now, time.Duration(10+i%7)*time.Millisecond)
			}
			if i%17 == 0 {
				tr.NoteDrained(2, now)
			}
		}
		return tr.Summarize()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same observation stream diverged: %+v vs %+v", a, b)
	}
}

func TestTransitionsTableCoversLifecycle(t *testing.T) {
	seen := map[State]bool{}
	for _, tr := range Transitions() {
		seen[tr.From] = true
		seen[tr.To] = true
		if tr.Trigger == "" {
			t.Fatalf("transition %v→%v has no trigger", tr.From, tr.To)
		}
	}
	for st := Healthy; st < stateCount; st++ {
		if !seen[st] {
			t.Fatalf("state %v missing from the transition table", st)
		}
	}
}

func TestStateStringsRoundTrip(t *testing.T) {
	for st := Healthy; st < stateCount; st++ {
		if parseState(st.String()) != st {
			t.Fatalf("state %v does not round-trip through its name", st)
		}
	}
}
