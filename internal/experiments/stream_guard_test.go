package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// streamCeiling gates the full-size (10M-request) memory-ceiling test: it
// takes seconds and belongs to `make bench-stream`, not the tier-1 suite.
var streamCeiling = flag.Bool("stream-ceiling", false,
	"run the 10M-request streaming replay under a hard peak-heap ceiling")

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
	// peak ratio is noise; the strict bars are enforced on the artifact.
	if res.AllocsPerReq > 5 {
		t.Errorf("streaming replay allocates %.2f/req even at smoke size", res.AllocsPerReq)
	}
}

// TestStreamArtifactGuard validates the streaming section of the checked-in
// BENCH_sim_scale.json against the acceptance bars: a 10M+-request streaming
// point, per-request allocations at or below the indexed materialized path,
// peak heap within 1.5× of the 10×-smaller baseline (constant memory), and
// both equality proofs green.
func TestStreamArtifactGuard(t *testing.T) {
	path := filepath.Join("..", "..", BenchScaleFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing artifact %s (run `make bench-scale`): %v", BenchScaleFile, err)
	}
	var res ScaleBench
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stream == nil {
		t.Fatalf("artifact has no streaming section (regenerate with `make bench-scale`)")
	}
	s := res.Stream
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var stream map[string]any
	if err := json.Unmarshal(keys["stream"], &stream); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"stream_requests", "stream_ms", "stream_allocs_per_req",
		"stream_peak_heap_base_mb", "stream_peak_heap_mb", "stream_peak_ratio",
		"stream_matches_materialized", "windowed_matches_serial", "parallel_windows",
	} {
		if _, ok := stream[k]; !ok {
			t.Errorf("stream section missing key %q", k)
		}
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
		t.Error("artifact records a streaming/materialized divergence")
	}
	if !s.WindowedMatchesSerial {
		t.Error("artifact records a windowed/serial divergence")
	}
	if s.ParallelWindows == 0 {
		t.Error("artifact's windowed replay never parallelized a window")
	}
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

// TestStreamCeiling replays >= 10M requests through the streaming engine
// under a hard peak-heap ceiling. Opt-in via -stream-ceiling (it is the
// `make bench-stream` gate); on failure it names the heaviest allocation
// sites so the regression is attributable from the CI log alone.
func TestStreamCeiling(t *testing.T) {
	if !*streamCeiling {
		t.Skip("pass -stream-ceiling to run the 10M-request memory-ceiling test")
	}
	const ceilingMB = 256.0
	o := Options{Seed: 1}.withDefaults()
	spec := streamSpec(o, 10_000_000, 1_000_000, 8)
	var n int
	peak := peakHeapDuring(func() {
		_, _, _, n = streamRun(spec, 1)
	})
	t.Logf("streamed %d requests, peak heap %.1f MB (ceiling %.0f MB)", n, peak, ceilingMB)
	if n < 10_000_000 {
		t.Fatalf("streamed only %d requests; want >= 10M (rate tuning drifted)", n)
	}
	if peak > ceilingMB {
		t.Fatalf("peak heap %.1f MB exceeds the %.0f MB ceiling; heaviest allocation sites:\n%s",
			peak, ceilingMB, topAllocSites(8))
	}
}
