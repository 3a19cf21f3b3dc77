package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Sampled spans mark one call in many of a per-call layer: they are for
// viewing and do not enter self-time accounting, which would be wrong with
// most siblings missing. Per-call layers are measured by counters instead.
type span struct {
	Name       string
	ID, Parent int64
	Req        int64
	Lane       int
	Start, End time.Duration
	Sampled    bool
}

// spanRecorder keeps spans in memory for the length of a traced run. A nil
// recorder records nothing, so untraced code paths call it unconditionally.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// open starts a span under parent and returns its ID (0 on a nil recorder).
func (r *spanRecorder) open(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: -1, Start: now, End: -1})
	return id
}

// openSampled starts a sampled span of one request on a client lane.
func (r *spanRecorder) openSampled(name string, parent, req int64, lane int) int64 {
	id := r.open(name, parent)
	if id != 0 {
		r.mu.Lock()
		s := &r.spans[id-1]
		s.Req, s.Lane, s.Sampled = req, lane, true
		r.mu.Unlock()
	}
	return id
}

// close ends the span opened as id.
func (r *spanRecorder) close(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished sampled span of a per-call layer.
func (r *spanRecorder) add(name string, parent, req int64, lane int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := start.Sub(r.epoch)
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: req, Lane: lane, Start: s, End: s + d, Sampled: true})
	r.mu.Unlock()
}

// selfTime is one span name's aggregate: how many spans, their total
// duration, and their self time (duration minus the part of the interval
// that unsampled child spans cover).
type selfTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates closed, unsampled spans by name, sorted by name.
func (r *spanRecorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 && !s.Sampled && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfTime)
	var names []string
	for _, s := range r.spans {
		if s.Sampled || s.End < 0 {
			continue
		}
		a, ok := agg[s.Name]
		if !ok {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.Total += s.End - s.Start
		a.Self += s.End - s.Start - covered(s, children[s.ID])
	}
	sort.Strings(names)
	out := make([]selfTime, len(names))
	for i, n := range names {
		out[i] = *agg[n]
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open. Times are microseconds from the recorder's
// start; a span's category is its layer (the name up to the first dot).
func (r *spanRecorder) writeChrome(path string, meta any) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req >= 0 {
			args["req"] = s.Req
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
