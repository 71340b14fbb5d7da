package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"llstar"
)

// decodeRoundTrip marshals a grammar's analysis and decodes it back.
func decodeRoundTrip(t *testing.T, g *llstar.Grammar) *llstar.Grammar {
	t.Helper()
	data, err := g.MarshalAnalysis()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	decoded, err := llstar.UnmarshalAnalysis(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !decoded.LoadedFromCache() {
		t.Error("decoded grammar does not report LoadedFromCache")
	}
	return decoded
}

// TestSerializationRoundTrip proves MarshalAnalysis → UnmarshalAnalysis
// is lossless for every benchmark grammar: the decoded grammar's DFA
// dump (down to state numbering, edge order, predicate edges, and
// config-set labels), decision table, warnings, fallback reasons, and
// cache fingerprint are byte-identical to the live analysis it came
// from.
func TestSerializationRoundTrip(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			live, err := w.LoadFresh()
			if err != nil {
				t.Fatal(err)
			}
			decoded := decodeRoundTrip(t, live)

			if lf, df := fingerprint(live), fingerprint(decoded); lf != df {
				t.Fatalf("analysis fingerprints differ after round trip:\n--- live ---\n%s\n--- decoded ---\n%s", lf, df)
			}
			if ld, dd := dfaDump(live), dfaDump(decoded); ld != dd {
				t.Fatal("DFA dumps differ after round trip")
			}
			if lk, dk := live.Fingerprint(), decoded.Fingerprint(); lk != dk {
				t.Fatalf("cache keys differ after round trip: live=%s decoded=%s", lk, dk)
			}
			if la, da := live.AnalysisDigest(), decoded.AnalysisDigest(); la != da {
				t.Fatalf("analysis digests differ after round trip: live=%s decoded=%s", la, da)
			}
		})
	}
}

// TestSerializationGolden pins decoded artifacts against the same
// golden fingerprints that pin live analysis: decoding must land on
// exactly the checked-in outcome, not merely on something
// self-consistent.
func TestSerializationGolden(t *testing.T) {
	cases := []struct {
		name, path string
	}{
		{"figure1", filepath.Join("..", "..", "grammars", "figure1.g")},
		{"figure2", filepath.Join("..", "..", "grammars", "figure2.g")},
		{"java15", filepath.Join("grammars", "java15.g")},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			src, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			live, err := llstar.Load(c.path, string(src))
			if err != nil {
				t.Fatal(err)
			}
			decoded := decodeRoundTrip(t, live)

			want, err := os.ReadFile(filepath.Join("testdata", "analysis_"+c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(decoded); got != string(want) {
				t.Errorf("decoded analysis drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestRoundTripDifferential runs the decoded grammar through the
// differential corpus: on valid and mutated inputs, a parser built from
// the decoded grammar must agree with the live grammar's parser on
// accept/reject, tree shape, and runtime decision stats. Serialization
// must change *nothing* about parse behavior.
func TestRoundTripDifferential(t *testing.T) {
	const lines = 25
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			live, err := w.Load()
			if err != nil {
				t.Fatal(err)
			}
			decoded := decodeRoundTrip(t, live)
			for seed := int64(1); seed <= 2; seed++ {
				for name, input := range mutations(w.Input(seed, lines)) {
					label := fmt.Sprintf("seed=%d/%s", seed, name)

					lp := live.NewParser(llstar.WithTree(), llstar.WithStats())
					lTree, lErr := lp.Parse(w.Start, input)
					dp := decoded.NewParser(llstar.WithTree(), llstar.WithStats())
					dTree, dErr := dp.Parse(w.Start, input)

					if (lErr == nil) != (dErr == nil) {
						t.Errorf("%s: live and decoded parsers disagree:\nlive: %v\ndecoded: %v",
							label, lErr, dErr)
						continue
					}
					if lErr == nil && lTree.String() != dTree.String() {
						t.Errorf("%s: live and decoded parsers accept with different trees", label)
					}
					if ls, ds := lp.Stats(), dp.Stats(); ls.String() != ds.String() {
						t.Errorf("%s: live and decoded parsers report different stats:\nlive: %s\ndecoded: %s",
							label, ls, ds)
					}
				}
			}
		})
	}
}
