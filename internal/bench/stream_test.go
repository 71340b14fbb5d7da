package bench

import (
	"strings"
	"testing"
	"time"

	"llstar"
)

// TestStreamDifferential replays streaming SAX events into a tree
// builder for every benchmark grammar and requires the reconstructed
// tree to be byte-identical to a batch parse — accept/reject, tree
// shape, and error positions must all agree. Mutated inputs check the
// failure paths too.
func TestStreamDifferential(t *testing.T) {
	const lines = 20
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			g, err := w.Load()
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 2; seed++ {
				for name, input := range mutations(w.Input(seed, lines)) {
					batch, batchErr := g.NewParser(llstar.WithTree()).Parse(w.Start, input)

					tb := llstar.NewStreamTreeBuilder()
					var lastErr *llstar.StreamError
					s, err := g.NewSession(
						llstar.WithStartRule(w.Start),
						llstar.WithEvents(func(e llstar.StreamEvent) {
							tb.Event(e)
							if e.Kind == llstar.StreamSyntaxError {
								lastErr = e.Err
							}
						}))
					if err != nil {
						t.Fatal(err)
					}
					streamErr := feedBytes(s, input, 113)

					if (batchErr == nil) != (streamErr == nil) {
						t.Errorf("seed=%d/%s: accept/reject disagree: batch=%v stream=%v",
							seed, name, batchErr, streamErr)
						continue
					}
					if batchErr == nil {
						if got, want := tb.Tree().String(), batch.String(); got != want {
							t.Errorf("seed=%d/%s: tree mismatch", seed, name)
						}
						continue
					}
					// Both reject: the streamed error must locate the same
					// offending token as the batch error (Section 4.4
					// deepest-failure reporting).
					var bse *llstar.SyntaxError
					if want, ok := batchErr.(*llstar.SyntaxError); ok {
						bse = want
					}
					if bse != nil && lastErr != nil {
						if bse.Offending.Pos != lastErr.Offending.Pos || bse.Msg != lastErr.Msg {
							t.Errorf("seed=%d/%s: error mismatch:\nbatch:  %s %+v\nstream: %s %+v",
								seed, name, bse.Msg, bse.Offending.Pos, lastErr.Msg, lastErr.Offending.Pos)
						}
					}
				}
			}
		})
	}
}

// feedBytes pumps input in fixed-size chunks and finishes.
func feedBytes(s *llstar.Session, input string, chunk int) error {
	for i := 0; i < len(input); i += chunk {
		end := i + chunk
		if end > len(input) {
			end = len(input)
		}
		if err := s.Feed([]byte(input[i:end])); err != nil {
			return err
		}
	}
	return s.Finish()
}

// TestAddStreamDeterministic: AddStream's counters are stable across
// runs and the edit benchmark meets its reuse bar.
func TestAddStreamDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run")
	}
	run := func() *ResultSet {
		rs, err := RunResultSet(1, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.AddStream(); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	for i := range a.Workloads {
		if a.Workloads[i].StreamEvents != b.Workloads[i].StreamEvents {
			t.Errorf("%s: stream_events differ across runs: %d vs %d",
				a.Workloads[i].Name, a.Workloads[i].StreamEvents, b.Workloads[i].StreamEvents)
		}
		if a.Workloads[i].StreamEvents == 0 {
			t.Errorf("%s: stream_events = 0", a.Workloads[i].Name)
		}
		if a.Workloads[i].StreamPeakWindow != b.Workloads[i].StreamPeakWindow {
			t.Errorf("%s: stream_peak_window differ across runs", a.Workloads[i].Name)
		}
	}
	if a.Stream == nil || b.Stream == nil {
		t.Fatal("stream section missing")
	}
	if a.Stream.EditReusedTokensPct != b.Stream.EditReusedTokensPct {
		t.Errorf("edit_reused_tokens_pct differs across runs: %v vs %v",
			a.Stream.EditReusedTokensPct, b.Stream.EditReusedTokensPct)
	}
	if a.Stream.EditReusedTokensPct < 90 {
		t.Errorf("edit reuse = %.2f%%, want >= 90%%", a.Stream.EditReusedTokensPct)
	}
	// Compare must accept a stream-bearing baseline against itself and
	// reject a drifted one.
	var out strings.Builder
	if !Compare(&out, a, b, CompareOptions{}) {
		t.Errorf("Compare rejected identical stream runs:\n%s", out.String())
	}
	b.Stream.EditReusedTokensPct += 1
	if Compare(&out, a, b, CompareOptions{}) {
		t.Error("Compare accepted drifted edit_reused_tokens_pct")
	}
}

// TestCompareToleratesMissingStream: an old baseline without stream
// data must keep passing against a stream-bearing run, and vice versa
// must fail.
func TestCompareToleratesMissingStream(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run")
	}
	baseline, err := RunResultSet(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := RunResultSet(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.AddStream(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if !Compare(&out, baseline, cur, CompareOptions{}) {
		t.Errorf("old baseline rejected stream-bearing run:\n%s", out.String())
	}
	out.Reset()
	if Compare(&out, cur, baseline, CompareOptions{}) {
		t.Error("stream-bearing baseline accepted a run without stream data")
	}
}

func TestPercentile(t *testing.T) {
	ms := time.Millisecond
	ds := []time.Duration{5 * ms, 1 * ms, 4 * ms, 2 * ms, 3 * ms}
	if got := percentile(ds, 0.5); got != 3*ms {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(ds, 0.99); got != 5*ms {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}
