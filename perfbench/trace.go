package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one span around
// each call into a layer, linked to the span that caused it, all
// sharing the run id. They are written out when the benchmark ends.
type tracer struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []*spanRec
}

// spanRec is one recorded span. Times are nanoseconds since the run
// started; Parent is -1 for the root.
type spanRec struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Run    string            `json:"run"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	closed bool
}

// span is a handle on an open span.
type span struct {
	t   *tracer
	rec *spanRec
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// start opens a span under parent (nil for a root span).
func (t *tracer) start(name string, parent *span) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := -1
	if parent != nil {
		p = parent.rec.ID
	}
	rec := &spanRec{ID: len(t.spans), Parent: p, Name: name, Start: int64(time.Since(t.t0)), Run: t.runID}
	t.spans = append(t.spans, rec)
	return &span{t: t, rec: rec}
}

// child opens a span caused by s.
func (s *span) child(name string) *span { return s.t.start(name, s) }

// attr annotates the span.
func (s *span) attr(k string, v any) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.rec.Attrs == nil {
		s.rec.Attrs = map[string]string{}
	}
	s.rec.Attrs[k] = fmt.Sprint(v)
}

// end closes the span; later calls are no-ops.
func (s *span) end() {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.rec.closed {
		s.rec.End = int64(time.Since(s.t.t0))
		s.rec.closed = true
	}
}

// dump writes every span as JSON.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Run   string     `json:"run"`
		Spans []*spanRec `json:"spans"`
	}{t.runID, t.spans}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layers aggregates spans by name: count, total time and self time (a
// span's duration minus the part of it its children cover).
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]*spanRec)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	var order []string
	for _, s := range t.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		dur := time.Duration(s.End - s.Start)
		row.count++
		row.total += dur
		row.self += dur - covered(s, kids[s.ID])
	}
	out := make([]layerRow, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *spanRec, kids []*spanRec) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = -1
	for _, v := range ivs {
		if v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return time.Duration(sum)
}

// writeTable prints the per-span-name table the traced run reports.
func (t *tracer) writeTable(w io.Writer) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range t.layers() {
		fmt.Fprintf(w, "%-28s %7d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
