package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side timing around a call into a layer.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	Dur    time.Duration
	Parent int   // index of the enclosing span, -1 for none
	ID     int64 // request, round, or probe repetition the span belongs to
	Arg    string
	TID    int
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per operation.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, start time.Time, dur time.Duration, parent int, id int64, arg string, tid int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch), Dur: dur,
		Parent: parent, ID: id, Arg: arg, TID: tid,
	})
	return len(t.spans) - 1
}

// call times fn as a span and returns its duration.
func (t *tracer) call(name string, id int64, arg string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.add(name, t0, d, -1, id, arg, 0)
	return d
}

// medianSum is the median over IDs (probe repetitions) of the summed
// duration of the spans named name whose Arg matches arg ("" = any), in
// nanoseconds.
func (t *tracer) medianSum(name, arg string) float64 {
	per := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name && (arg == "" || s.Arg == arg) {
			per[s.ID] += float64(s.Dur)
		}
	}
	var xs []float64
	for _, v := range per {
		xs = append(xs, v)
	}
	return median(xs)
}

// durationsOf lists the durations of the spans named name with the
// given Arg, in ns.
func (t *tracer) durationsOf(name, arg string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Arg == arg {
			out = append(out, float64(s.Dur))
		}
	}
	return out
}

// selfTimes totals, per span name, the time not covered by child spans.
func (t *tracer) selfTimes() []metric {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += s.Dur
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.Dur
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]metric, 0, len(names))
	for _, n := range names {
		out = append(out, metric{Name: "self." + n, Value: ms(float64(self[n])), Unit: "ms"})
	}
	return out
}

// chromeEvent is one Chrome trace-event "complete" record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event JSON array
// (chrome://tracing, Perfetto); pid separates workloads in a merged file.
func (t *tracer) writeChrome(path string, pid int) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID}
		if s.Arg != "" {
			args["arg"] = s.Arg
		}
		if s.Parent >= 0 {
			args["parent"] = t.spans[s.Parent].Name
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", PID: pid, TID: s.TID, Args: args,
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.Dur) / 1e3,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(evs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
