package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<what>"; the
// layer is the text before the first dot, named after the module's
// packages (exp, scenario, sim, tools, probe, runner, monitor,
// livenet).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: begin returns 0 and end does nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time: its duration
// minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64 = 0, parent.Start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// layerMetrics adds, for every layer, its summed self time as
// "layer.<layer>.self_ms", and the share of the root spans' wall time
// that named layers cover as "trace.coverage_frac". roots name the
// spans around the workload's measured phases.
func (t *tracer) layerMetrics(into map[string]float64, roots ...string) {
	isRoot := map[string]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	var rootSelf, rootDur time.Duration
	for name, d := range t.selfTimes() {
		if isRoot[name] {
			rootSelf += d
			continue
		}
		layer, _, _ := strings.Cut(name, ".")
		into["layer."+layer+".self_ms"] += ms(d)
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if isRoot[s.Name] && s.End >= 0 {
			rootDur += time.Duration(s.End - s.Start)
		}
	}
	t.mu.Unlock()
	into["trace.coverage_frac"] = 0
	if rootDur > 0 {
		into["trace.coverage_frac"] = 1 - float64(rootSelf)/float64(rootDur)
	}
}

// write stores the spans and the host record as one JSON document.
func (t *tracer) write(path string, host map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Host  map[string]any `json:"host"`
		Spans []span         `json:"spans"`
	}{host, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
