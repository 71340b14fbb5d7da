package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"llstar/internal/runtime"
)

func TestActiveNormalizesNop(t *testing.T) {
	if Active(nil) != nil {
		t.Error("Active(nil) must be nil")
	}
	if Active(Nop) != nil {
		t.Error("Active(Nop) must be nil")
	}
	w := NewJSONL(&bytes.Buffer{})
	if Active(w) != Tracer(w) {
		t.Error("Active must pass real tracers through")
	}
	// The no-op tracer itself must be callable.
	Nop.Emit(Event{Name: "x"})
	if Nop.Now() != 0 {
		t.Error("Nop.Now must be 0")
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	w.Emit(Event{
		Name: "predict", Cat: PhaseRuntime, Ph: PhSpan,
		TS: 5 * time.Microsecond, Dur: 7 * time.Microsecond,
		Decision: 3, Rule: "expr", Alt: 2, K: 4, Throttle: "fixed", OK: true,
	})
	w.Emit(Event{Name: "analysis.warning", Cat: PhaseAnalysis, Ph: PhInstant, Decision: -1, Detail: "ambiguity: x"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	for k, want := range map[string]any{
		"name": "predict", "cat": "runtime", "ph": "X",
		"decision": float64(3), "rule": "expr", "alt": float64(2),
		"k": float64(4), "throttle": "fixed", "ok": true,
		"ts_us": float64(5), "dur_us": float64(7),
	} {
		if first[k] != want {
			t.Errorf("line 0 %s = %v, want %v", k, first[k], want)
		}
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if _, present := second["decision"]; present {
		t.Error("decision -1 must be omitted")
	}
	if second["detail"] != "ambiguity: x" || second["ph"] != "i" {
		t.Errorf("line 1 = %v", second)
	}
}

func TestChromeWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewChrome(&buf)
	w.Emit(Event{
		Name: "predict", Cat: PhaseRuntime, Ph: PhSpan,
		TS: 10 * time.Microsecond, Dur: 2 * time.Microsecond,
		Decision: 1, Rule: "s", Alt: 1, K: 2, Throttle: "cyclic", OK: true,
	})
	w.Emit(Event{Name: "memo.hit", Cat: PhaseRuntime, Ph: PhInstant, Decision: -1, Rule: "expr", N: 9})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("want 2 events, got %d", len(events))
	}
	e0 := events[0]
	if e0["name"] != "predict" || e0["ph"] != "X" || e0["ts"] != float64(10) || e0["dur"] != float64(2) {
		t.Errorf("span event = %v", e0)
	}
	if e0["pid"] != float64(1) || e0["tid"] != float64(1) {
		t.Errorf("pid/tid missing: %v", e0)
	}
	args := e0["args"].(map[string]any)
	if args["decision"] != float64(1) || args["throttle"] != "cyclic" || args["k"] != float64(2) {
		t.Errorf("args = %v", args)
	}
	e1 := events[1]
	if e1["ph"] != "i" || e1["s"] != "t" {
		t.Errorf("instant event = %v", e1)
	}
}

func TestChromeWriterZeroDurationVisible(t *testing.T) {
	var buf bytes.Buffer
	w := NewChrome(&buf)
	w.Emit(Event{Name: "parse", Cat: PhaseRuntime, Ph: PhSpan, Decision: -1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if d := events[0]["dur"].(float64); d <= 0 {
		t.Errorf("zero-duration span must be clamped positive, got %v", d)
	}
}

func TestChromeWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewChrome(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace must still be valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 0 {
		t.Errorf("want empty array, got %v", events)
	}
}

func TestWriterAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Emit(Event{Name: "late"}) // must be a silent no-op
	if w.Events() != 0 {
		t.Error("emit after close must not record")
	}
	if err := w.Close(); err != nil {
		t.Error("double close must be idempotent")
	}
}

// collector is a minimal Tracer for TraceProbe tests with a fixed clock.
type collector struct {
	events []Event
	now    time.Duration
}

func (c *collector) Emit(e Event)       { c.events = append(c.events, e) }
func (c *collector) Now() time.Duration { return c.now }

// TestTraceProbeTracer: the trace consumer renders parse-loop events
// for its tracer and stamps them with the tracer's clock.
func TestTraceProbeTracer(t *testing.T) {
	a := &collector{now: 100}
	tp := NewTraceProbe(a, &runtime.Shape{Decisions: []runtime.DecisionShape{{Class: runtime.ThrottleFixed}}})
	tp.BeginParse(false)
	tp.BeginPredict()
	a.now = 150
	tp.Predict(runtime.Prediction{Decision: 0, K: 1})
	if len(a.events) != 1 {
		t.Fatalf("events = %d, want 1", len(a.events))
	}
	if e := a.events[0]; e.Name != "predict" || e.Throttle != "fixed" || e.TS != 100 || e.Dur != 50 {
		t.Errorf("predict event = %+v", e)
	}
	tp.EndParse(runtime.ParseEnd{Rule: "s"})
	if e := a.events[1]; e.Name != "parse" || e.TS != 100 || e.Dur != 50 {
		t.Errorf("parse event = %+v", e)
	}
}
