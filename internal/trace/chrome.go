// Chrome trace_event export: the recorded timeline as the JSON array
// format chrome://tracing and Perfetto load. Track classes become
// processes, tracks become threads, spans become complete ("X") events
// and instants "i" events.
//
// The writer is hand-rolled instead of encoding/json so the byte stream
// is deterministic by construction: fixed key order, fixed number
// formatting (microseconds with six decimals — exact, since simulated
// time is integer picoseconds), events in insertion order, and metadata
// sorted by (pid, tid). No wall clock is ever read.

package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"powermanna/internal/sim"
)

// class labels for the process_name metadata, indexed by class constant.
var classNames = map[int]string{
	ClassNode:     "nodes",
	ClassCPU:      "cpus",
	ClassXbarPort: "crossbar ports",
	ClassWire:     "wires",
	ClassDispatch: "dispatcher",
	ClassOS:       "os stream",
}

// Name renders a stable human-readable label for the track, derived from
// the same topology coordinates as the ID itself.
func (t TrackID) Name() string {
	idx := t.Index()
	switch t.Class() {
	case ClassNode:
		return fmt.Sprintf("node %d", idx)
	case ClassCPU:
		unit := "EU"
		if idx%CPUsPerNode == 1 {
			unit = "SU"
		}
		return fmt.Sprintf("node %d %s", idx/CPUsPerNode, unit)
	case ClassXbarPort:
		return fmt.Sprintf("xbar %d out %d", idx/portStride, idx%portStride)
	case ClassWire:
		dir := "out"
		if idx%wireDirs == 1 {
			dir = "in"
		}
		dp := idx / wireDirs
		return fmt.Sprintf("wire %d.%d %s", dp/portStride, dp%portStride, dir)
	case ClassDispatch:
		if idx == 0 {
			return "dispatcher addr"
		}
		return fmt.Sprintf("dispatcher data m%d", idx-1)
	case ClassOS:
		return "os stream"
	}
	return fmt.Sprintf("track %d", int64(t))
}

// WriteChrome writes the recorder's events as Chrome trace_event JSON.
// The output is a pure function of the recorded events: same events,
// identical bytes.
func WriteChrome(w io.Writer, r *Recorder) error {
	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")

	events := r.Events()
	tracks := distinctTracks(events)
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}

	// Metadata: process names per class, thread names per track.
	seenClass := map[int]bool{}
	for _, t := range tracks {
		if c := t.Class(); !seenClass[c] {
			seenClass[c] = true
			emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
				c, jsonString(classNames[c])))
		}
		emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
			t.Class(), t.Index(), jsonString(t.Name())))
	}

	for _, e := range events {
		var line strings.Builder
		if e.Kind == InstantEvent {
			fmt.Fprintf(&line, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"s\":\"t\"",
				e.Track.Class(), e.Track.Index(), micros(e.Start))
		} else {
			fmt.Fprintf(&line, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s",
				e.Track.Class(), e.Track.Index(), micros(e.Start), micros(e.End-e.Start))
		}
		fmt.Fprintf(&line, ",\"cat\":%s,\"name\":%s", jsonString(e.Cat), jsonString(e.Name))
		if e.Arg != "" {
			fmt.Fprintf(&line, ",\"args\":{\"detail\":%s}", jsonString(e.Arg))
		}
		line.WriteString("}")
		emit(line.String())
	}

	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// distinctTracks lists every track the events touch, sorted by
// (class, index) for deterministic metadata order.
func distinctTracks(events []Event) []TrackID {
	seen := map[TrackID]bool{}
	var tracks []TrackID
	for _, e := range events {
		if !seen[e.Track] {
			seen[e.Track] = true
			tracks = append(tracks, e.Track)
		}
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
	return tracks
}

// micros renders a picosecond time as decimal microseconds with six
// digits of fraction — exact (1 ps = 1e-6 µs), so formatting cannot
// introduce platform float drift.
func micros(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	return fmt.Sprintf("%s%d.%06d", neg, int64(t)/1_000_000, int64(t)%1_000_000)
}

// jsonString escapes a label for embedding in the hand-rolled JSON.
// Labels are ASCII by construction; the escaper covers the general case
// anyway.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString("\\\"")
		case '\\':
			b.WriteString("\\\\")
		case '\n':
			b.WriteString("\\n")
		case '\t':
			b.WriteString("\\t")
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, "\\u%04x", r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
