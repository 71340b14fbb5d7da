package llstar_test

import (
	"strings"
	"testing"

	"llstar"
	"llstar/internal/bench"
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

// TestFlightCaptureTiming pins the recorder's timing contract: it reads
// the clock only when a parse begins and ends, so the parse span alone
// has a duration and every other parse-loop event carries the parse's
// start, while a session's own stream.* spans keep their timestamps.
func TestFlightCaptureTiming(t *testing.T) {
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	rec := llstar.NewFlightRecorder(1 << 15)
	p := g.NewParser(llstar.WithTree())
	p.SetFlightRecorder(rec)
	if _, err := p.Parse(w.Start, w.Input(1, 120)); err != nil {
		t.Fatal(err)
	}
	p.SetFlightRecorder(nil)
	evs := rec.Events()
	if len(evs) < 2 || rec.Dropped() != 0 {
		t.Fatalf("ring holds %d events, dropped %d", len(evs), rec.Dropped())
	}
	parse := evs[len(evs)-1]
	if parse.Name != "parse" || parse.Dur <= 0 {
		t.Fatalf("last event = %+v, want a timed parse span", parse)
	}
	for _, e := range evs[:len(evs)-1] {
		if e.TS != parse.TS || e.Dur != 0 {
			t.Fatalf("%s event at %v for %v; want the parse start %v and no duration", e.Name, e.TS, e.Dur, parse.TS)
		}
	}

	rec = llstar.NewFlightRecorder(1 << 15)
	s, err := g.NewSession(llstar.WithStartRule(w.Start), llstar.WithIncremental(),
		llstar.WithSessionFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	in := w.Input(1, 30)
	for len(in) > 0 {
		n := min(256, len(in))
		if err := s.Feed([]byte(in[:n])); err != nil {
			t.Fatal(err)
		}
		in = in[n:]
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	digit := strings.IndexAny(string(s.Text()), "123456789")
	if digit < 0 {
		t.Fatal("session input has no digit to edit")
	}
	if err := s.Edit(llstar.Edit{Offset: digit, OldLen: 1, NewText: "7"}); err != nil {
		t.Fatalf("edit: %v", err)
	}
	spans := map[string][]llstar.TraceEvent{}
	for _, e := range rec.Events() {
		if strings.HasPrefix(e.Name, "stream.") {
			spans[e.Name] = append(spans[e.Name], e)
		}
	}
	feeds, whole, edits := spans["stream.feed"], spans["stream.parse"], spans["stream.edit"]
	if len(feeds) < 2 || len(whole) != 1 || len(edits) != 1 {
		t.Fatalf("stream spans: %d feed, %d parse, %d edit", len(feeds), len(whole), len(edits))
	}
	for i, e := range feeds {
		if e.Dur <= 0 || i > 0 && e.TS < feeds[i-1].TS+feeds[i-1].Dur {
			t.Errorf("stream.feed %d at %v for %v overlaps its predecessor or is untimed", i, e.TS, e.Dur)
		}
	}
	last := feeds[len(feeds)-1]
	if sp := whole[0]; sp.TS > feeds[0].TS || sp.TS+sp.Dur < last.TS+last.Dur {
		t.Errorf("stream.parse at %v for %v does not span the feeds", sp.TS, sp.Dur)
	}
	if e := edits[0]; e.Dur <= 0 || e.TS < whole[0].TS+whole[0].Dur {
		t.Errorf("stream.edit at %v for %v precedes the parse's end or is untimed", e.TS, e.Dur)
	}
}

// TestFlightAttachAllocs: once a parser has seated a recorder,
// attaching and detaching recorders allocates nothing.
func TestFlightAttachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	p := g.NewParser(llstar.WithStats())
	a, b := llstar.NewFlightRecorder(8), llstar.NewFlightRecorder(8)
	if n := testing.AllocsPerRun(100, func() {
		p.SetFlightRecorder(a)
		p.SetFlightRecorder(nil)
		p.SetFlightRecorder(b)
		p.SetFlightRecorder(nil)
	}); n != 0 {
		t.Errorf("attach/detach cycle: %.1f allocations, want 0", n)
	}
}
