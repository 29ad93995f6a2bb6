package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Start and End are host time since the
// recorder was created.
type Span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	// Run identifies the iteration or job the span belongs to; spans of
	// one iteration or job share it.
	Run   string
	Start time.Duration
	End   time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(name, run string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Run: run,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// open starts a span whose end is set later by close; children can
// name it as their parent before it ends.
func (r *recorder) open(name, run string, parent int) int {
	now := time.Now()
	return r.add(name, run, parent, now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = time.Since(r.t0)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Overlapping children
// (concurrent jobs under one round) are counted once, and a child that
// outlives its parent is clipped to the parent's interval.
func selfTimes(spans []Span) map[int]time.Duration {
	type iv struct{ a, b time.Duration }
	children := map[int][]iv{}
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				children[s.Parent] = append(children[s.Parent], iv{a, b})
			}
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB time.Duration
		for i, v := range ivs {
			switch {
			case i == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// writeSpans writes every span with its self time, and the self time
// summed per span name, as JSON.
func writeSpans(path string, spans []Span) error {
	type selfSpan struct {
		Span
		Self time.Duration
	}
	self := selfTimes(spans)
	out := make([]selfSpan, len(spans))
	for i, s := range spans {
		out[i] = selfSpan{s, self[s.ID]}
	}
	b, err := json.MarshalIndent(struct {
		Spans      []selfSpan
		SelfByName map[string]float64
	}{out, selfByName(spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
