package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"llstar"
)

// streamChunk is the chunk size the streaming benchmarks feed with —
// a typical network read.
const streamChunk = 64 << 10

// jsonGrammar is the streaming benchmark grammar: a flat LL(1) JSON
// grammar whose inputs scale trivially, so streaming-vs-batch memory
// and edit latency are measured without speculation noise.
const jsonGrammar = `
grammar StreamJSON;
value : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
obj : '{' (pair (',' pair)*)? '}' ;
pair : STRING ':' value ;
arr : '[' (value (',' value)*)? ']' ;
STRING : '"' (~('"'|'\\') | '\\' .)* '"' ;
NUMBER : ('-')? ('0'..'9')+ ('.' ('0'..'9')+)? (('e'|'E') ('+'|'-')? ('0'..'9')+)? ;
WS : (' '|'\t'|'\r'|'\n')+ { skip(); } ;
`

func loadStreamJSON() (*llstar.Grammar, error) {
	return llstar.Load("streamjson.g", jsonGrammar)
}

// streamJSONLine renders one synthetic array element (one line, ~80
// bytes, 26 tokens).
func streamJSONLine(b *strings.Builder, i int) {
	fmt.Fprintf(b, `  {"id": %d, "name": "item%d", "ok": true, "vals": [%d, %d.5, null]}`, i, i, i*2, i)
}

// genStreamJSON builds a JSON document of n array elements (n+2 lines).
func genStreamJSON(n int) string {
	var b strings.Builder
	b.Grow(n * 84)
	b.WriteString("[\n")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",\n")
		}
		streamJSONLine(&b, i)
	}
	b.WriteString("\n]\n")
	return b.String()
}

// StreamResult is the streaming/incremental section of a result set.
// The counter and ratio fields are deterministic; the timings are
// noisy like every other timing in the file.
type StreamResult struct {
	// EditLines is the size of the edit-benchmark document.
	EditLines int `json:"edit_lines"`
	// EditTokens is its token count (deterministic).
	EditTokens int `json:"edit_tokens"`
	// EditReusedTokensPct is the percentage of tokens reused across the
	// benchmark's single-token edits (deterministic).
	EditReusedTokensPct float64 `json:"edit_reused_tokens_pct"`
	// EditNanos is the median single-token edit latency (noisy).
	EditNanos int64 `json:"edit_nanos,omitempty"`
	// FullParseNanos is the batch lex+parse time of the same document
	// (noisy).
	FullParseNanos int64 `json:"full_parse_nanos,omitempty"`
}

// AddStream fills the streaming columns of a result set: per-workload
// SAX event counts and window peaks (deterministic), plus the
// incremental edit benchmark on a synthetic JSON document.
func (rs *ResultSet) AddStream() error {
	for i := range rs.Workloads {
		w, err := ByName(rs.Workloads[i].Name)
		if err != nil {
			return err
		}
		g, err := w.Load()
		if err != nil {
			return err
		}
		input := w.Input(rs.Seed, rs.Lines)
		s, err := g.NewSession(llstar.WithStartRule(w.Start))
		if err != nil {
			return err
		}
		if err := feedAll(s, input); err != nil {
			return fmt.Errorf("%s: stream parse: %w", w.Name, err)
		}
		st := s.Stats()
		rs.Workloads[i].StreamEvents = int(st.Events)
		rs.Workloads[i].StreamPeakWindow = st.PeakWindow
	}
	sr, err := editBench(10000, 3)
	if err != nil {
		return err
	}
	rs.Stream = sr
	return nil
}

// feedAll pumps input into a session in streamChunk-sized chunks.
func feedAll(s *llstar.Session, input string) error {
	for i := 0; i < len(input); i += streamChunk {
		end := i + streamChunk
		if end > len(input) {
			end = len(input)
		}
		if err := s.Feed([]byte(input[i:end])); err != nil {
			return err
		}
	}
	return s.Finish()
}

// editBench measures single-token edits on an n-element JSON document:
// reuse ratio (deterministic) and median edit latency vs the batch
// parse time of the same document.
func editBench(n, runs int) (*StreamResult, error) {
	g, err := loadStreamJSON()
	if err != nil {
		return nil, err
	}
	input := genStreamJSON(n)

	// Batch reference: best-of-runs full lex+parse.
	p := g.NewParser()
	full := time.Duration(math.MaxInt64)
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		if _, err := p.Parse("value", input); err != nil {
			return nil, err
		}
		if d := time.Since(t0); d < full {
			full = d
		}
	}

	s, err := g.NewSession(llstar.WithIncremental())
	if err != nil {
		return nil, err
	}
	if err := feedAll(s, input); err != nil {
		return nil, err
	}
	sr := &StreamResult{EditLines: countLines(input), EditTokens: s.Stats().Tokens}

	// One-token edits spread across the document: bump an "id" number.
	var lat []time.Duration
	var reuseSum float64
	edits := 0
	for _, frac := range []int{10, 25, 50, 75, 90} {
		marker := fmt.Sprintf(`"id": %d,`, n*frac/100)
		off := strings.Index(string(s.Text()), marker)
		if off < 0 {
			continue
		}
		off += len(`"id": `)
		oldLen := strings.IndexByte(marker, ',') - len(`"id": `)
		t0 := time.Now()
		if err := s.Edit(llstar.Edit{Offset: off, OldLen: oldLen, NewText: "7"}); err != nil {
			return nil, fmt.Errorf("edit at %d%%: %w", frac, err)
		}
		lat = append(lat, time.Since(t0))
		reuseSum += s.Stats().TokenReuseRatio
		edits++
	}
	if edits == 0 {
		return nil, fmt.Errorf("edit bench: no edit markers found")
	}
	sr.EditNanos = percentile(lat, 0.5).Nanoseconds()
	sr.FullParseNanos = full.Nanoseconds()
	sr.EditReusedTokensPct = math.Round(10000*reuseSum/float64(edits)) / 100
	return sr, nil
}

// percentile returns the q-quantile of ds (nearest-rank). It sorts in
// place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(q*float64(len(ds))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

// StreamTable prints the streaming section: per-workload streamed
// throughput and window peaks, then the bounded-memory comparison and
// the incremental edit benchmark.
func StreamTable(out io.Writer, seed int64, lines int) error {
	fmt.Fprintf(out, "%-10s %12s %12s %12s %10s\n", "grammar", "batch l/s", "stream l/s", "events", "window")
	for _, w := range Workloads {
		g, err := w.Load()
		if err != nil {
			return err
		}
		input := w.Input(seed, lines)
		nl := countLines(input)

		p := g.NewParser()
		t0 := time.Now()
		if _, err := p.Parse(w.Start, input); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		batch := time.Since(t0)

		s, err := g.NewSession(llstar.WithStartRule(w.Start))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := feedAll(s, input); err != nil {
			return fmt.Errorf("%s: stream: %w", w.Name, err)
		}
		streamed := time.Since(t0)
		st := s.Stats()
		fmt.Fprintf(out, "%-10s %12.0f %12.0f %12d %10d\n",
			w.Name,
			float64(nl)/batch.Seconds(),
			float64(nl)/streamed.Seconds(),
			st.Events, st.PeakWindow)
	}
	fmt.Fprintln(out)
	if err := StreamMemory(out, 100); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return StreamEdits(out)
}

// StreamMemory streams approximately targetMB of synthetic JSON through
// a session, generating chunks on the fly so only the session's own
// state occupies the heap, and reports peak heap against a batch parse
// of a 1/10th-size document — the bounded-memory demonstration.
func StreamMemory(out io.Writer, targetMB int) error {
	g, err := loadStreamJSON()
	if err != nil {
		return err
	}
	elems := targetMB << 20 / 84

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	s, err := g.NewSession()
	if err != nil {
		return err
	}
	var peak uint64
	var b strings.Builder
	b.WriteString("[\n")
	total, chunks := int64(0), 0
	t0 := time.Now()
	for i := 0; i < elems; i++ {
		if i > 0 {
			b.WriteString(",\n")
		}
		streamJSONLine(&b, i)
		if b.Len() >= streamChunk {
			total += int64(b.Len())
			if err := s.Feed([]byte(b.String())); err != nil {
				return err
			}
			b.Reset()
			if chunks++; chunks%64 == 0 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
			}
		}
	}
	b.WriteString("\n]\n")
	total += int64(b.Len())
	if err := s.Feed([]byte(b.String())); err != nil {
		return err
	}
	if err := s.Finish(); err != nil {
		return err
	}
	elapsed := time.Since(t0)
	st := s.Stats()

	sessionPeak := int64(peak) - int64(base.HeapAlloc)
	if sessionPeak < 0 {
		sessionPeak = 0
	}

	// Batch reference at 1/10th size: materialized input + full token
	// stream + memo, the memory profile streaming avoids.
	smallInput := genStreamJSON(elems / 10)
	runtime.GC()
	runtime.ReadMemStats(&base)
	p := g.NewParser()
	if _, err := p.Parse("value", smallInput); err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	batchPeak := int64(after.TotalAlloc) - int64(base.TotalAlloc)

	fmt.Fprintf(out, "streamed %dMB (%d tokens) in %v: %.0f lines/sec, peak session heap %dKB (window %d tokens)\n",
		total>>20, st.Tokens, elapsed.Round(time.Millisecond),
		float64(elems)/elapsed.Seconds(), sessionPeak>>10, st.PeakWindow)
	fmt.Fprintf(out, "batch reference: parsing %dMB allocated %dMB total\n",
		int64(len(smallInput))>>20, batchPeak>>20)
	return nil
}

// StreamEdits prints the incremental edit benchmark.
func StreamEdits(out io.Writer) error {
	sr, err := editBench(10000, 3)
	if err != nil {
		return err
	}
	full := time.Duration(sr.FullParseNanos)
	edit := time.Duration(sr.EditNanos)
	pct := 100 * float64(sr.EditNanos) / float64(sr.FullParseNanos)
	fmt.Fprintf(out, "incremental edit (%d-line JSON, %d tokens): median 1-token edit %v vs full parse %v (%.1f%%), token reuse %.2f%%\n",
		sr.EditLines, sr.EditTokens, edit.Round(time.Microsecond), full.Round(time.Microsecond), pct, sr.EditReusedTokensPct)
	return nil
}
