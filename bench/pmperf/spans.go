package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanRecorder times the benchmark's own calls into each layer in host
// time. Spans stay in memory until the worker exits; a nil recorder
// records nothing, so timed runs pay one nil check per span.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

type span struct {
	name       string
	start, dur time.Duration
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns the function that closes it. Spans
// nest by containment: one opened inside another is its child.
func (r *spanRecorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		r.spans = append(r.spans, span{name: name, start: start.Sub(r.origin), dur: time.Since(start)})
	}
}

// seconds sums the durations of the spans named name, or of every span
// whose name starts with name when it ends in "/".
func (r *spanRecorder) seconds(name string) float64 {
	if r == nil {
		return 0
	}
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name || (strings.HasSuffix(name, "/") && strings.HasPrefix(s.name, name)) {
			d += s.dur
		}
	}
	return d.Seconds()
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events on one track; nesting shows as stacking), for chrome://tracing
// or Perfetto.
func (r *spanRecorder) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.name, Cat: "pmperf", Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
		})
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
