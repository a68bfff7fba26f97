package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one operation (job, BFS, request) share
// op; parent indexes the enclosing span, -1 for an operation's root.
type span struct {
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. When off, every
// method is a no-op, so untraced runs pay only a nil check per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, op int64, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a finished span with known bounds, for intervals the
// program reports itself (a query's queue wait and execution).
func (t *tracer) record(name string, op int64, parent int, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// layerOf maps a span name ("core.run", "serve.wait") to its layer;
// operation roots ("op.bfs") belong to the benchmark itself.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time — a span's duration minus
// the part its children cover — plus the operations' own remainder,
// which no layer claims.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]float64{}
	var total, rest float64
	for i, s := range t.spans {
		d := s.End - s.Start
		own := (d - coveredBy(t.spans, children[i], s)).Seconds()
		if s.Parent < 0 {
			total += d.Seconds()
		}
		if layer := layerOf(s.Name); layer == "op" {
			rest += own
		} else {
			self["self."+layer+"_s"] += own
		}
	}
	self["self.unattributed_s"] = rest
	if total > 0 {
		self["trace.unattributed_share"] = rest / total
	}
	self["trace.spans"] = float64(len(t.spans))
	return self
}

// coveredBy returns how much of parent's interval the union of the
// given spans covers. Intervals the program reports itself (a query's
// queue wait starts inside the Submit call) may reach outside the span
// they are filed under, so each is clipped to the parent first.
func coveredBy(spans []span, idx []int, parent span) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(idx))
	for k, i := range idx {
		iv[k] = [2]time.Duration{max(spans[i].Start, parent.Start), min(spans[i].End, parent.End)}
		iv[k][1] = max(iv[k][1], iv[k][0])
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			sum += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return sum + cur[1] - cur[0]
}

// write saves the spans as JSON under cfg.root/traces and returns the
// file's path.
func (t *tracer) write(cfg config) (string, error) {
	dir := filepath.Join(cfg.root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// timed runs f inside a span and returns how long it took.
func (t *tracer) timed(name string, op int64, parent int, f func() error) (time.Duration, error) {
	sp := t.begin(name, op, parent)
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.end(sp)
	return d, err
}
