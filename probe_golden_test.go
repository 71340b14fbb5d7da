package llstar_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"llstar"
	"llstar/internal/bench"
)

// parityCase is one input whose observability output is pinned by
// TestProbeParityGolden.
type parityCase struct {
	name    string
	load    func() (*llstar.Grammar, error)
	rule    string
	input   string
	recover bool
	edit    llstar.Edit
}

func parityCases(t *testing.T) []parityCase {
	java, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	javaIn := java.Input(1, 120)
	digit := strings.IndexAny(javaIn, "123456789")
	if digit < 0 {
		t.Fatal("java input has no digit to edit")
	}
	file := func(path string, opts llstar.LoadOptions) func() (*llstar.Grammar, error) {
		return func() (*llstar.Grammar, error) {
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return llstar.LoadWith(filepath.Base(path), string(src), opts)
		}
	}
	return []parityCase{
		{
			name:  "figure2",
			load:  func() (*llstar.Grammar, error) { return llstar.Load("fig2.g", fig2Src) },
			rule:  "t",
			input: "- - 5 !",
			edit:  llstar.Edit{Offset: 4, OldLen: 1, NewText: "7"},
		},
		{
			name:  "json",
			load:  file("grammars/json.g", llstar.LoadOptions{}),
			rule:  "value",
			input: `{"a": [1, 2.5, true], "b": {"c": null, "d": "x"}, "e": []}`,
			edit:  llstar.Edit{Offset: 7, OldLen: 1, NewText: "42"},
		},
		{
			name:    "calc-recover",
			load:    file("grammars/calc.g", llstar.LoadOptions{RewriteLeftRecursion: true}),
			rule:    "e",
			input:   "1 + ( 2 * ) 3 + 4 ) * 5",
			recover: true,
			edit:    llstar.Edit{Offset: 0, OldLen: 1, NewText: "9"},
		},
		{
			name:  "java15",
			load:  java.Load,
			rule:  java.Start,
			input: javaIn,
			edit:  llstar.Edit{Offset: digit, OldLen: 1, NewText: "7"},
		},
	}
}

// TestProbeParityGolden pins every surface the parser runtime feeds —
// the Stats summary, the coverage snapshot, the Prometheus scrape, the
// JSONL trace (timestamps zeroed), and a streaming session's events
// across one incremental Edit — for four inputs covering backtracking
// with memoization, plain LL(1), error recovery with resyncs and
// semantic predicates, and a large PEG-mode grammar. Each surface is
// rendered once with every consumer installed on one parser and once
// with that consumer alone; both must match the golden byte for byte.
//
//	UPDATE_GOLDEN=1 go test -run TestProbeParityGolden .
func TestProbeParityGolden(t *testing.T) {
	for _, c := range parityCases(t) {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.load()
			if err != nil {
				t.Fatal(err)
			}
			got := renderParity(t, g, c)
			golden := filepath.Join("testdata", "probe", c.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
			}
			if got != string(want) {
				t.Errorf("observability output drifted from %s; diff it against:\n%s", golden, got)
			}
		})
	}
}

// renderParity produces the golden text for one case.
func renderParity(t *testing.T, g *llstar.Grammar, c parityCase) string {
	t.Helper()
	newParser := func(opts ...llstar.ParserOption) *llstar.Parser {
		if c.recover {
			opts = append(opts, llstar.WithRecovery(0))
		}
		return g.NewParser(append(opts, llstar.WithTree())...)
	}
	run := func(p *llstar.Parser) *llstar.Parser {
		if _, err := p.Parse(c.rule, c.input); err != nil && !c.recover {
			t.Fatalf("parse: %v", err)
		}
		return p
	}
	parse := func(opts ...llstar.ParserOption) *llstar.Parser { return run(newParser(opts...)) }
	cov := func(prof *llstar.CoverageProfile) string {
		b, err := json.Marshal(prof.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	prom := func(m *llstar.Metrics) string {
		var b bytes.Buffer
		if err := m.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	trace := func(buf *bytes.Buffer, tw *llstar.TraceWriter) string {
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return zeroTimes(buf.String())
	}

	// Every consumer on one parser.
	allCov, allMx := g.NewCoverage(), llstar.NewMetrics()
	var allBuf bytes.Buffer
	allTw := llstar.NewJSONLTracer(&allBuf)
	var errs []string
	all := parse(llstar.WithStats(), llstar.WithCoverage(allCov), llstar.WithMetrics(allMx),
		llstar.WithTracer(allTw), llstar.WithErrorListener(func(se *llstar.SyntaxError) { errs = append(errs, se.Error()) }))
	sections := []struct{ name, body string }{
		{"stats", all.Stats().String()},
		{"coverage", cov(allCov)},
		{"metrics", prom(allMx)},
		{"trace", trace(&allBuf, allTw)},
		{"errors", strings.Join(errs, "\n")},
	}

	// Each consumer alone must agree with the combined run.
	solo := map[string]string{"stats": parse(llstar.WithStats()).Stats().String()}
	soloCov := g.NewCoverage()
	parse(llstar.WithCoverage(soloCov))
	solo["coverage"] = cov(soloCov)
	soloMx := llstar.NewMetrics()
	parse(llstar.WithMetrics(soloMx))
	solo["metrics"] = prom(soloMx)
	var soloBuf bytes.Buffer
	soloTw := llstar.NewJSONLTracer(&soloBuf)
	parse(llstar.WithTracer(soloTw))
	solo["trace"] = trace(&soloBuf, soloTw)
	for _, s := range sections {
		if want, ok := solo[s.name]; ok && want != s.body {
			t.Errorf("%s: single-consumer output differs from the combined run", s.name)
		}
	}

	// A flight recorder, installed at construction or attached later,
	// sees exactly the trace the tracer sees.
	for name, install := range map[string]func(*llstar.FlightRecorder) *llstar.Parser{
		"WithFlightRecorder": func(r *llstar.FlightRecorder) *llstar.Parser { return parse(llstar.WithFlightRecorder(r)) },
		"SetFlightRecorder": func(r *llstar.FlightRecorder) *llstar.Parser {
			p := newParser()
			p.SetFlightRecorder(r)
			run(p)
			p.SetFlightRecorder(nil)
			return p
		},
	} {
		rec := llstar.NewFlightRecorder(1 << 20)
		install(rec)
		var buf bytes.Buffer
		tw := llstar.NewJSONLTracer(&buf)
		for _, e := range rec.Events() {
			tw.Emit(e)
		}
		if trace(&buf, tw) != sections[3].body {
			t.Errorf("%s: flight recorder events differ from the tracer's", name)
		}
	}

	for _, s := range renderSession(t, g, c) {
		sections = append(sections, struct{ name, body string }{s[0], s[1]})
	}
	var out strings.Builder
	for _, s := range sections {
		body := s.body
		if len(body) > 64<<10 {
			body = fmt.Sprintf("sha256 %x (%d bytes, %d lines)", sha256.Sum256([]byte(body)), len(body), strings.Count(body, "\n"))
		}
		fmt.Fprintf(&out, "== %s ==\n%s\n", s.name, strings.TrimRight(body, "\n"))
	}
	return out.String()
}

// renderSession streams the input through an incremental session in
// small chunks, applies the case's edit, and renders the session's
// events as NDJSON, then its verdicts and stats, trace and metrics.
func renderSession(t *testing.T, g *llstar.Grammar, c parityCase) [][2]string {
	t.Helper()
	var events, out bytes.Buffer
	enc := json.NewEncoder(&events)
	sink := func(e llstar.StreamEvent) {
		rec := map[string]any{"kind": e.Kind.String()}
		if e.Rule != "" {
			rec["rule"] = e.Rule
		}
		if e.Kind == llstar.StreamToken {
			rec["token"] = e.Token
		}
		if e.Err != nil {
			rec["error"] = e.Err
		}
		enc.Encode(rec)
	}
	var trBuf bytes.Buffer
	tw := llstar.NewJSONLTracer(&trBuf)
	mx := llstar.NewMetrics()
	opts := []llstar.SessionOption{llstar.WithStartRule(c.rule), llstar.WithEvents(sink),
		llstar.WithIncremental(), llstar.WithSessionTracer(tw), llstar.WithSessionMetrics(mx)}
	if c.recover {
		opts = append(opts, llstar.WithSessionRecovery())
	}
	s, err := g.NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte(c.input)
	for len(in) > 0 {
		n := min(7, len(in))
		if err := s.Feed(in[:n]); err != nil {
			fmt.Fprintf(&out, "feed: %v\n", err)
			break
		}
		in = in[n:]
	}
	fmt.Fprintf(&out, "finish: %v\n", s.Finish())
	fmt.Fprintf(&out, "edit: %v\n", s.Edit(c.edit))
	st, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "stats: %s\ntree: %s\n", st, s.TreeString())
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := mx.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return [][2]string{
		{"stream.events", events.String()},
		{"stream.session", out.String()},
		{"stream.trace", zeroTimes(trBuf.String())},
		{"stream.metrics", prom.String()},
	}
}

var (
	tsField  = regexp.MustCompile(`"ts_us":\d+`)
	durField = regexp.MustCompile(`,"dur_us":\d+`)
)

// zeroTimes strips the wall-clock fields from a JSONL trace.
func zeroTimes(s string) string {
	return durField.ReplaceAllString(tsField.ReplaceAllString(s, `"ts_us":0`), "")
}
