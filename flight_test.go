package llstar_test

import (
	"strings"
	"testing"

	"llstar"
)

// TestFlightRecorderCapturesParse: a recorder installed at
// construction rides the parse and retains the event tail, bounded by
// its capacity.
func TestFlightRecorderCapturesParse(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	rec := llstar.NewFlightRecorder(32)
	p := g.NewParser(llstar.WithFlightRecorder(rec))
	input := strings.Repeat("- ", 10) + "5 !"
	if _, err := p.Parse("t", input); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
	names := map[string]bool{}
	for _, e := range rec.Events() {
		names[e.Name] = true
	}
	if !names["predict"] {
		t.Errorf("no predict events in %v", names)
	}

	// A tiny ring keeps only the tail and reports the overflow.
	tiny := llstar.NewFlightRecorder(4)
	p2 := g.NewParser(llstar.WithFlightRecorder(tiny))
	if _, err := p2.Parse("t", input); err != nil {
		t.Fatal(err)
	}
	if tiny.Len() != 4 || tiny.Dropped() == 0 {
		t.Errorf("tiny ring: len=%d dropped=%d", tiny.Len(), tiny.Dropped())
	}
}

// TestFlightRecorderTeesWithTracer: a flight recorder rides alongside
// a construction-time tracer — both sinks see the runtime events.
func TestFlightRecorderTeesWithTracer(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tw := llstar.NewJSONLTracer(&buf)
	rec := llstar.NewFlightRecorder(64)
	p := g.NewParser(llstar.WithTracer(tw), llstar.WithFlightRecorder(rec))
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("recorder saw nothing while teed")
	}
	if !strings.Contains(buf.String(), "predict") {
		t.Error("tracer saw nothing while teed")
	}
}

// TestSetFlightRecorderAttachDetach: the pooled-parser pattern — a
// parser constructed without a recorder gains one per request and
// sheds it afterwards, repeatedly.
func TestSetFlightRecorderAttachDetach(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	p := g.NewParser()
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}

	rec := llstar.NewFlightRecorder(64)
	p.SetFlightRecorder(rec)
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	attached := rec.Len()
	if attached == 0 {
		t.Fatal("attached recorder captured nothing")
	}

	p.SetFlightRecorder(nil)
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != attached {
		t.Errorf("detached recorder still receiving: %d -> %d", attached, rec.Len())
	}

	// Reattach after Reset: the cycle is repeatable (sync.Pool reuse).
	rec.Reset()
	p.SetFlightRecorder(rec)
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("reattached recorder captured nothing")
	}
}

// TestFlightDisabledOverheadGuard enforces the cost contract from
// docs/observability.md: a parser with no flight recorder — whether
// never attached, attached then detached, or given a nil recorder —
// leaves the probe nil and allocates what a bare parser does.
func TestFlightDisabledOverheadGuard(t *testing.T) {
	f := newAllocFixture(t)
	detached := f.g.NewParser()
	detached.SetFlightRecorder(f.rec)
	detached.SetFlightRecorder(nil)
	f.checkBare(t, map[string]*llstar.Parser{
		"nil recorder": f.g.NewParser(llstar.WithFlightRecorder(nil)),
		"detached":     detached,
	})
}
