package experiments

import (
	"flag"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/simulate"
)

// fullScale gates TestFullScale: the million-request scale benchmark and the
// ten-million-request streaming replay take tens of seconds and belong to
// `make benchguard`, not the tier-1 suite.
var fullScale = flag.Bool("full-scale", false,
	"run the full-size scale and streaming benchmarks against their bars")

// TestScaleSmoke runs the scale benchmark at a tiny request count and checks
// the invariants that must hold at any scale: the windowed replay equals the
// serial one, did not fall back, and split windows into one partition per
// node group (the placement is built to partition); and on the same fixture
// the indexed router agrees with the scanning router on every dispatch.
func TestScaleSmoke(t *testing.T) {
	res := Scale(Options{Quick: true, Seed: 5}, 4000, 4, 8)
	if res.Requests == 0 {
		t.Fatal("empty trace")
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
	fx := scaleCluster(Options{Quick: true, Seed: 5}.withDefaults(), 4000, 4)
	crossCheckRouting(t, fx, res.Requests)
	// Record-level identity on the same fixture: the cross-check compares
	// every window's record multiset with a lockstep serial oracle and
	// panics on a divergence.
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

// crossCheckRouting replays the scale fixture serially with CrossCheckRouting
// on: the simulator panics on the first dispatch where the indexed router and
// the scanning router disagree, so a full replay proves the scan would have
// produced the same records. Every one of the want arrivals must be served
// or dropped.
func crossCheckRouting(t *testing.T, fx scaleFixture, want int) {
	t.Helper()
	cfg := fx.cfg
	cfg.CrossCheckRouting = true
	sum, err := simulate.New(cfg, fx.fns).RunStream(fx.trace.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Count() + sum.Faults.Dropped; got != want {
		t.Errorf("routing cross-check replay: %d served + %d dropped, want %d arrivals",
			sum.Count(), sum.Faults.Dropped, want)
	}
}

// TestStreamScaleSmoke runs the streaming scale section at a tiny size and
// checks the invariants that must hold at any scale: the streaming summary
// equals the materialized one, the windowed replay equals serial on the
// bridge-connected placement, and the replay actually parallelized.
func TestStreamScaleSmoke(t *testing.T) {
	res := StreamScale(Options{Quick: true, Seed: 5}, 30_000, 2, 8)
	if res.Requests == 0 || res.WindowedRequests == 0 {
		t.Fatal("empty streaming replay")
	}
	if !res.MatchesMaterialized {
		t.Error("streaming summary diverged from the materialized replay")
	}
	if !res.WindowedMatchesSerial {
		t.Error("windowed replay diverged from the serial streaming engine")
	}
	if res.ParallelWindows == 0 {
		t.Errorf("no window parallelized: %+v", res)
	}
	if res.PeakHeapMB <= 0 || res.PeakHeapBaseMB <= 0 {
		t.Errorf("peak heap not sampled: %+v", res)
	}
	// At tiny sizes fixed costs (cluster build) dominate allocs/req and the
	// peak ratio is noise; the strict bars are enforced by TestFullScale.
	if res.AllocsPerReq > 5 {
		t.Errorf("streaming replay allocates %.2f/req even at smoke size", res.AllocsPerReq)
	}
}

// TestFullScale runs the scale benchmark (1M requests) and its streaming
// section (10M requests) at full size and checks every bar on the fresh run:
//
//   - windowed == serial summaries, at 1M and on the streaming fixture;
//     streaming == materialized summaries; and, on the 1M fixture, the
//     indexed router agrees with the scanning router on every dispatch
//     (a CrossCheckRouting replay);
//   - the windowed replay neither falls back to serial nor splits into
//     fewer partitions than node groups, and parallelizes some window;
//   - streaming allocates no more per request than the indexed path, and
//     10x the requests stay under 1.5x the peak heap and a hard 256 MB
//     ceiling — on failure the heaviest allocation sites are printed, so a
//     regression is attributable from the CI log alone.
//
// Opt-in via -full-scale.
func TestFullScale(t *testing.T) {
	if !*fullScale {
		t.Skip("pass -full-scale to run the full-size scale and streaming benchmarks")
	}
	res := Scale(Options{Seed: 1}, 0, 0, 0)
	s := StreamScale(Options{Seed: 1}, 0, 0, 0)
	res.Stream = &s
	t.Logf("\n%s", res.Render())
	requireKeys(t, res,
		"requests", "indexed_ms", "windowed_ms", "speedup_windowed",
		"indexed_allocs_per_req", "windowed_allocs_per_req",
		"windowed_matches_serial", "max_partitions", "stream")
	requireKeys(t, s,
		"stream_requests", "stream_ms", "stream_allocs_per_req",
		"stream_peak_heap_base_mb", "stream_peak_heap_mb", "stream_peak_ratio",
		"stream_matches_materialized", "windowed_matches_serial", "parallel_windows")

	if res.Requests < 500_000 {
		t.Errorf("scale trace has only %d requests; want >= 500000", res.Requests)
	}
	if !res.WindowedMatchesSerial {
		t.Error("windowed replay summary diverged from serial")
	}
	if res.WindowedSerialReason != "" {
		t.Errorf("windowed replay fell back to serial: %s", res.WindowedSerialReason)
	}
	if res.MaxPartitions != res.Groups {
		t.Errorf("windowed replay split into at most %d partitions; want one per group (%d)",
			res.MaxPartitions, res.Groups)
	}

	if s.Requests < 10_000_000 {
		t.Errorf("streaming point replayed only %d requests; want >= 10M", s.Requests)
	}
	if s.AllocsPerReq > res.IndexedAllocsPerReq {
		t.Errorf("streaming allocs/req %.4f above the indexed materialized path's %.4f",
			s.AllocsPerReq, res.IndexedAllocsPerReq)
	}
	if s.PeakRatio <= 0 || s.PeakRatio >= 1.5 {
		t.Errorf("peak heap ratio %.2f (10x the requests must stay under 1.5x the memory)", s.PeakRatio)
	}
	if !s.MatchesMaterialized {
		t.Error("streaming summary diverged from the materialized replay")
	}
	if !s.WindowedMatchesSerial {
		t.Error("windowed streaming replay diverged from serial")
	}
	if s.ParallelWindows == 0 {
		t.Error("windowed streaming replay never parallelized a window")
	}
	const ceilingMB = 256.0
	if s.PeakHeapMB > ceilingMB {
		t.Errorf("peak heap %.1f MB exceeds the %.0f MB ceiling; heaviest allocation sites:\n%s",
			s.PeakHeapMB, ceilingMB, topAllocSites(8))
	}

	crossCheckRouting(t, scaleCluster(Options{Seed: 1}.withDefaults(), 1_000_000, 8), res.Requests)
}

// topAllocSites renders the heaviest in-use allocation sites from the
// runtime's allocation profile — the "offending allocation site" report the
// ceiling test prints on failure.
func topAllocSites(n int) string {
	var recs []runtime.MemProfileRecord
	size, ok := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, size+64)
		size, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:size]
			break
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].InUseBytes() > recs[j].InUseBytes() })
	if n > len(recs) {
		n = len(recs)
	}
	var b strings.Builder
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		site := "(unknown)"
		for {
			f, more := frames.Next()
			if f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") {
				site = fmt.Sprintf("%s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)
				break
			}
			if !more {
				break
			}
		}
		fmt.Fprintf(&b, "  %8.1f MB in-use, %8.1f MB allocated  %s\n",
			float64(r.InUseBytes())/(1<<20), float64(r.AllocBytes)/(1<<20), site)
	}
	return b.String()
}
