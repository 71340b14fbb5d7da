// Package flight is the request-scoped flight recorder of the
// observability layer: a bounded, allocation-free ring of compact event
// records that keeps the last N runtime events of one parse, plus an
// anomaly trigger and a server-wide bounded capture store, so the full
// event timeline of "the one slow request" is retrievable after the
// fact without paying for always-on full tracing.
//
// The design follows the paper's operational reality: LL(*) prediction
// is adaptive (Sections 4–5), so a production parse can silently
// degrade from LL(1) to cyclic-DFA scanning to full backtracking.
// Aggregate metrics and coverage profiles show that a fleet degrades;
// only a per-request capture shows *which* request degraded and at
// which decisions. A Recorder rides along every request cheaply
// (single-writer, fixed capacity, no locks, no allocation and no clock
// read per event); when the request turns out anomalous — too slow, a
// 5xx, a panic, or over its speculation budget — the ring is expanded
// into a Capture and persisted in a Store for the /debug/flight
// endpoints.
//
// The cost contract matches the tracer and coverage profiler: with no
// recorder attached the parser's instrumentation sites reduce to one
// nil check, so a disabled flight recorder is indistinguishable from no
// observability at all.
package flight

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"llstar/internal/obs"
	"llstar/internal/runtime"
)

// DefaultEvents is the ring capacity used when a Recorder is created
// with a non-positive capacity: enough to hold the prediction tail of
// a degraded parse without dominating request memory.
const DefaultEvents = 256

// Recorder is a bounded ring of event records for one request (or one
// CLI parse). It is single-writer — exactly like the parser that feeds
// it — and never allocates after construction: a new record overwrites
// the oldest once the ring is full. A parser writes into it through a
// Probe, and Emit adds any other event, such as a streaming session's
// stream.* spans. Records become obs.Events only when Events or
// Snapshot takes a capture. Reset rearms it for reuse from a sync.Pool.
type Recorder struct {
	epoch time.Time
	start time.Duration // the current parse's start, on the recorder's clock
	buf   []record
	head  int // the slot the next record overwrites
	n     int // records written since Reset (may exceed len(buf))
}

// record is one ring slot: an event in fixed-size form. Parse-loop
// records carry their parse's start time and no duration; parse spans
// and emitted events carry their own.
type record struct {
	ts, dur                 time.Duration
	n                       int64     // obs.Event.N: a token index or count
	rule, detail            string    // owned by the grammar or the event
	other                   *kindInfo // names a kindOther event
	decision, alt, k, depth int32
	kind                    kind
	throttle                runtime.Throttle
	ok, backtracked         bool
}

// kind is a record's event name, phase and type, indexing kinds.
type kind uint8

const (
	kindOther kind = iota // an emitted event outside the vocabulary below
	kindParse
	kindPredict
	kindSpecAlt
	kindSynPred
	kindMemoHit
	kindMemoMiss
	kindSemPred
	kindError
	kindResync
	kindFeed
	kindStreamParse
	kindEdit
)

// kindInfo is what a kind expands to.
type kindInfo struct {
	name string
	cat  obs.Phase
	ph   byte
}

var kinds = [...]kindInfo{
	kindParse:       {"parse", obs.PhaseRuntime, obs.PhSpan},
	kindPredict:     {"predict", obs.PhaseRuntime, obs.PhSpan},
	kindSpecAlt:     {"speculate.alt", obs.PhaseRuntime, obs.PhSpan},
	kindSynPred:     {"speculate.synpred", obs.PhaseRuntime, obs.PhSpan},
	kindMemoHit:     {"memo.hit", obs.PhaseRuntime, obs.PhInstant},
	kindMemoMiss:    {"memo.miss", obs.PhaseRuntime, obs.PhInstant},
	kindSemPred:     {"sempred", obs.PhaseRuntime, obs.PhInstant},
	kindError:       {"error", obs.PhaseRuntime, obs.PhInstant},
	kindResync:      {"resync", obs.PhaseRuntime, obs.PhInstant},
	kindFeed:        {"stream.feed", obs.PhaseStream, obs.PhSpan},
	kindStreamParse: {"stream.parse", obs.PhaseStream, obs.PhSpan},
	kindEdit:        {"stream.edit", obs.PhaseStream, obs.PhSpan},
}

// NewRecorder returns a recorder holding the last capacity events
// (DefaultEvents if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	return &Recorder{epoch: time.Now(), buf: make([]record, capacity)}
}

// next returns the slot for the next record.
func (r *Recorder) next() *record {
	rec := &r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n++
	return rec
}

// add writes the next record as a parse-loop event of the current
// parse and returns it for the fields its caller sets beyond these. It
// stores field by field, and clears the rarely set pointer fields only
// when they are set: storing a whole record literal goes through a
// stack temporary and a bulk write barrier, and every pointer store
// pays the write barrier while the collector runs.
func (r *Recorder) add(k kind, decision int, rule string, ok bool) *record {
	rec := r.next()
	rec.ts, rec.dur, rec.n = r.start, 0, 0
	rec.rule = rule
	if rec.detail != "" || rec.other != nil {
		rec.detail, rec.other = "", nil
	}
	rec.decision, rec.alt, rec.k, rec.depth = int32(decision), 0, 0, 0
	rec.kind, rec.throttle, rec.ok, rec.backtracked = k, 0, ok, false
	return rec
}

// Emit implements obs.Tracer: it records e, overwriting the oldest
// record once the ring is full. An event outside the parse-loop and
// streaming vocabulary keeps its name and phase at the cost of one
// allocation. Worker, and a Throttle other than a decision class, are
// not kept.
func (r *Recorder) Emit(e obs.Event) {
	rec := r.next()
	*rec = record{
		ts: e.TS, dur: e.Dur, n: e.N, rule: e.Rule, detail: e.Detail,
		decision: int32(e.Decision), alt: int32(e.Alt), k: int32(e.K), depth: int32(e.Depth),
		throttle: throttleCode(e.Throttle), ok: e.OK, backtracked: e.Backtracked,
	}
	for k := kindParse; int(k) < len(kinds); k++ {
		if kinds[k] == (kindInfo{e.Name, e.Cat, e.Ph}) {
			rec.kind = k
			return
		}
	}
	rec.other = &kindInfo{e.Name, e.Cat, e.Ph}
}

func throttleCode(class string) runtime.Throttle {
	for c := runtime.ThrottleFixed; c <= runtime.ThrottleBacktrack; c++ {
		if c.String() == class {
			return c
		}
	}
	return runtime.ThrottleNone
}

// Now implements obs.Tracer: time since the recorder's epoch (the last
// Reset), so a pooled recorder timestamps events relative to request
// start.
func (r *Recorder) Now() time.Duration { return time.Since(r.epoch) }

// Reset clears the ring and restarts the clock, making the recorder
// ready for the next request.
func (r *Recorder) Reset() {
	r.head, r.n = 0, 0
	r.epoch = time.Now()
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int { return min(r.n, len(r.buf)) }

// Dropped reports how many events were overwritten since Reset.
func (r *Recorder) Dropped() int { return r.n - r.Len() }

// Events expands the retained records into events, in emission order
// (oldest first).
func (r *Recorder) Events() []obs.Event {
	out := make([]obs.Event, r.Len())
	start := 0
	if r.n > len(r.buf) {
		start = r.head
	}
	for i := range out {
		out[i] = r.buf[(start+i)%len(r.buf)].event()
	}
	return out
}

// event expands one record.
func (rec *record) event() obs.Event {
	info := &kinds[rec.kind]
	if rec.kind == kindOther {
		info = rec.other
	}
	return obs.Event{
		Name: info.name, Cat: info.cat, Ph: info.ph, TS: rec.ts, Dur: rec.dur,
		Decision: int(rec.decision), Rule: rec.rule, Alt: int(rec.alt), K: int(rec.k), Depth: int(rec.depth),
		Throttle: rec.throttle.String(), Backtracked: rec.backtracked, OK: rec.ok,
		N: rec.n, Detail: rec.detail,
	}
}

// Probe is the flight recorder's consumer of a parser's runtime.Probe.
// It writes each parse-loop event as one record into the attached
// recorder and reads the recorder's clock only when a parse begins and
// ends, so a parse-loop event carries its parse's start time and no
// duration of its own; only the parse span is timed. A parser joins
// its Probe beside its other consumers while a recorder is attached,
// and attaching or detaching one allocates nothing.
type Probe struct {
	runtime.NopProbe
	r     *Recorder
	shape *runtime.Shape // names each decision's throttle
}

// NewProbe returns a probe for a parser of a grammar with the given
// shape. Attach a recorder before the probe sees a parse.
func NewProbe(shape *runtime.Shape) *Probe { return &Probe{shape: shape} }

// Attach directs the probe into r (nil detaches it). Call it only
// between parses.
func (p *Probe) Attach(r *Recorder) { p.r = r }

func (p *Probe) BeginParse(bool) { p.r.start = p.r.Now() }

func (p *Probe) Memo(_ int, rule string, start, depth int, hit, ok bool) {
	k := kindMemoMiss
	if hit {
		k = kindMemoHit
	}
	rec := p.r.add(k, -1, rule, ok)
	rec.depth, rec.n = int32(depth), int64(start)
}

func (p *Probe) Predict(e runtime.Prediction) {
	rec := p.r.add(kindPredict, e.Decision, e.Rule, !e.Failed)
	rec.alt, rec.k, rec.depth = int32(e.Alt), int32(e.K), int32(e.Depth)
	rec.throttle, rec.backtracked = p.shape.Decisions[e.Decision].Class, e.Backtracked
}

func (p *Probe) Speculate(e runtime.Speculation) {
	k, decision, alt := kindSpecAlt, e.Decision, e.Alt
	if e.SynPred >= 0 {
		k, decision, alt = kindSynPred, -1, e.SynPred
	}
	rec := p.r.add(k, decision, e.Rule, e.OK)
	rec.alt, rec.k, rec.depth = int32(alt), int32(e.Tokens), int32(e.Depth)
}

func (p *Probe) SemPred(rule, text string, depth int, ok bool, err error) {
	if err != nil {
		text += ": " + err.Error()
	}
	rec := p.r.add(kindSemPred, -1, rule, ok)
	rec.depth, rec.detail = int32(depth), text
}

func (p *Probe) SyntaxError(se *runtime.SyntaxError) {
	rec := p.r.add(kindError, -1, se.Rule, false)
	rec.detail, rec.n = se.Msg, int64(se.Offending.Index)
}

func (p *Probe) Resync(decision int, rule string, deleted int, ok bool) {
	p.r.add(kindResync, decision, rule, ok).n = int64(deleted)
}

// EndParse records the parse span; a fragment reparse has none.
func (p *Probe) EndParse(e runtime.ParseEnd) {
	if !e.Fragment {
		rec := p.r.add(kindParse, -1, e.Rule, e.Err == nil)
		rec.dur, rec.n = p.r.Now()-p.r.start, int64(e.Tokens)
	}
}

// EventRecord is the JSON shape of one captured event, matching the
// JSONL trace schema (docs/observability.md) so captures and trace
// files jq the same way.
type EventRecord struct {
	TSUS        int64  `json:"ts_us"`
	DurUS       int64  `json:"dur_us,omitempty"`
	Ph          string `json:"ph"`
	Cat         string `json:"cat"`
	Name        string `json:"name"`
	Decision    *int   `json:"decision,omitempty"`
	Rule        string `json:"rule,omitempty"`
	Alt         int    `json:"alt,omitempty"`
	K           int    `json:"k,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	Throttle    string `json:"throttle,omitempty"`
	Backtracked bool   `json:"backtracked,omitempty"`
	OK          bool   `json:"ok"`
	N           int64  `json:"n,omitempty"`
	Detail      string `json:"detail,omitempty"`
}

// toRecord converts one live event into its capture shape.
func toRecord(e obs.Event) EventRecord {
	rec := EventRecord{
		TSUS:        e.TS.Microseconds(),
		Ph:          string(e.Ph),
		Cat:         string(e.Cat),
		Name:        e.Name,
		Rule:        e.Rule,
		Alt:         e.Alt,
		K:           e.K,
		Depth:       e.Depth,
		Throttle:    e.Throttle,
		Backtracked: e.Backtracked,
		OK:          e.OK,
		N:           e.N,
		Detail:      e.Detail,
	}
	if e.Ph == obs.PhSpan {
		rec.DurUS = e.Dur.Microseconds()
	}
	if e.Decision >= 0 {
		d := e.Decision
		rec.Decision = &d
	}
	return rec
}

// toEvent reconstructs a live event from its capture shape (for
// replaying a capture through the Chrome trace_event writer).
func toEvent(rec EventRecord) obs.Event {
	e := obs.Event{
		TS:          time.Duration(rec.TSUS) * time.Microsecond,
		Dur:         time.Duration(rec.DurUS) * time.Microsecond,
		Cat:         obs.Phase(rec.Cat),
		Name:        rec.Name,
		Decision:    -1,
		Rule:        rec.Rule,
		Alt:         rec.Alt,
		K:           rec.K,
		Depth:       rec.Depth,
		Throttle:    rec.Throttle,
		Backtracked: rec.Backtracked,
		OK:          rec.OK,
		N:           rec.N,
		Detail:      rec.Detail,
	}
	if rec.Ph != "" {
		e.Ph = rec.Ph[0]
	}
	if rec.Decision != nil {
		e.Decision = *rec.Decision
	}
	return e
}

// Stats summarizes the runtime profile of the captured parse: the
// trigger inputs (backtrack activity, wasted speculation tokens) plus
// enough context to read the event tail without the full ParseStats.
type Stats struct {
	Tokens          int64 `json:"tokens,omitempty"`
	PredictEvents   int   `json:"predict_events,omitempty"`
	MaxLookahead    int   `json:"max_lookahead,omitempty"`
	BacktrackEvents int   `json:"backtrack_events,omitempty"`
	BacktrackTokens int64 `json:"backtrack_tokens,omitempty"`
	MemoHits        int   `json:"memo_hits,omitempty"`
	MemoMisses      int   `json:"memo_misses,omitempty"`
}

// Capture is one persisted flight recording: the identity of the
// request (request id and W3C trace id, correlating it with log lines
// and server.<endpoint> spans), what was parsed, how the request
// ended, why it was captured, and the last-N event timeline.
type Capture struct {
	// ID is the store-assigned capture id (stable, monotonic); the
	// /debug/flight/{id} endpoint resolves it, or the RequestID.
	ID        string `json:"id"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// SpanID is the capture's own child span id within the trace. Each
	// /v1/batch item mints a distinct one, so a by-trace lookup can
	// tell the items of one batch request apart.
	SpanID string `json:"span_id,omitempty"`
	// Replica is the cluster address of the replica that recorded the
	// capture — how a fleet-wide by-trace result says which side of a
	// proxy hop each capture came from. Empty when not cluster-attached.
	Replica  string `json:"replica,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
	Grammar  string `json:"grammar,omitempty"`
	Rule     string `json:"rule,omitempty"`
	// SessionID correlates captures from streaming sessions: every
	// capture taken for the same /v1/sessions session carries its id.
	SessionID string `json:"session_id,omitempty"`
	// Status is the HTTP status the request answered (0 for CLI captures).
	Status int `json:"status,omitempty"`
	// Trigger names the anomaly that fired: "slow", "status", "panic",
	// "backtrack", "wasted", "error" (CLI parse failure), or "manual".
	Trigger string    `json:"trigger"`
	Time    time.Time `json:"time"`
	DurUS   int64     `json:"dur_us"`
	Stats   Stats     `json:"stats"`
	// EventCount and Dropped size the timeline: events retained, and
	// older events the ring overwrote.
	EventCount int           `json:"event_count"`
	Dropped    int           `json:"dropped_events,omitempty"`
	Events     []EventRecord `json:"events,omitempty"`
}

// Snapshot freezes the recorder's current ring into capture form.
func (r *Recorder) Snapshot() ([]EventRecord, int) {
	evs := r.Events()
	out := make([]EventRecord, len(evs))
	for i, e := range evs {
		out[i] = toRecord(e)
	}
	return out, r.Dropped()
}

// Summary returns the capture without its event timeline, for listings.
func (c *Capture) Summary() Capture {
	s := *c
	s.Events = nil
	return s
}

// WriteChrome replays the capture through the Chrome trace_event
// writer, producing a JSON array loadable by chrome://tracing and
// Perfetto — the same renderer the -trace-format=chrome flag uses.
func (c *Capture) WriteChrome(w io.Writer) error {
	tw := obs.NewChrome(w)
	for _, rec := range c.Events {
		tw.Emit(toEvent(rec))
	}
	return tw.Close()
}

// Trigger decides which finished requests deserve a persisted capture.
// The zero value never fires; each field arms one condition.
type Trigger struct {
	// Slow fires when the request took at least this long.
	Slow time.Duration
	// MinStatus fires on a final HTTP status >= this (500 captures all
	// server errors including the 504 deadline path).
	MinStatus int
	// BacktrackEvents fires when the parse speculated at least this
	// many times.
	BacktrackEvents int
	// BacktrackTokens fires when speculation consumed (and rewound) at
	// least this many tokens — the wasted-work budget.
	BacktrackTokens int64
}

// Eval names the first armed condition the request crossed, or "".
func (t Trigger) Eval(status int, dur time.Duration, st Stats) string {
	switch {
	case t.MinStatus > 0 && status >= t.MinStatus:
		return "status"
	case t.Slow > 0 && dur >= t.Slow:
		return "slow"
	case t.BacktrackEvents > 0 && st.BacktrackEvents >= t.BacktrackEvents:
		return "backtrack"
	case t.BacktrackTokens > 0 && st.BacktrackTokens >= t.BacktrackTokens:
		return "wasted"
	}
	return ""
}

// DefaultCaptures bounds the Store when constructed with a
// non-positive capacity.
const DefaultCaptures = 64

// Store is the server-wide bounded capture store: the newest N
// captures, evicting the oldest. It is safe for concurrent use — any
// number of request goroutines Add while the debug endpoints List/Get.
type Store struct {
	mu   sync.Mutex
	max  int
	seq  int
	caps []*Capture // oldest first
}

// NewStore returns a store retaining the newest max captures
// (DefaultCaptures if max <= 0).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultCaptures
	}
	return &Store{max: max}
}

// Add assigns the capture its store id, persists it, and evicts the
// oldest capture beyond the bound. It returns the assigned id.
func (s *Store) Add(c *Capture) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	c.ID = fmt.Sprintf("f%06d", s.seq)
	c.EventCount = len(c.Events)
	s.caps = append(s.caps, c)
	if len(s.caps) > s.max {
		s.caps = append(s.caps[:0], s.caps[len(s.caps)-s.max:]...)
	}
	return c.ID
}

// List returns capture summaries (no event timelines), newest first.
func (s *Store) List() []Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Capture, 0, len(s.caps))
	for i := len(s.caps) - 1; i >= 0; i-- {
		out = append(out, s.caps[i].Summary())
	}
	return out
}

// Get resolves a capture by store id, or — so an operator can go
// straight from a logged request_id to its timeline — by request id
// (newest match wins).
func (s *Store) Get(id string) (*Capture, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.caps) - 1; i >= 0; i-- {
		if c := s.caps[i]; c.ID == id || (c.RequestID != "" && c.RequestID == id) {
			return c, true
		}
	}
	return nil, false
}

// ByTrace returns every retained capture whose trace id matches,
// oldest first and with full event timelines — the local half of the
// fleet-wide /debug/flight/by-trace lookup. A proxied request leaves
// captures on two replicas sharing one trace id; a batch request
// leaves one per item, distinguished by SpanID.
func (s *Store) ByTrace(traceID string) []Capture {
	if traceID == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Capture
	for _, c := range s.caps {
		if c.TraceID == traceID {
			out = append(out, *c)
		}
	}
	return out
}

// Len reports how many captures the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.caps)
}

// htmlTmpl renders a capture as a self-contained timeline page: the
// request header block, then one row per event with an offset bar
// scaled to the capture window — the flight-recorder counterpart of
// the coverage profiler's WriteHTML.
var htmlTmpl = template.Must(template.New("flight").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>flight {{.C.ID}}</title>
<style>
body { font: 13px/1.45 -apple-system, system-ui, sans-serif; margin: 1.5em; color: #1a1a2e; }
h1 { font-size: 1.2em; } code { background: #f0f0f5; padding: 0 3px; border-radius: 3px; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 2px 8px; font: 12px ui-monospace, monospace; white-space: nowrap; }
th { border-bottom: 1px solid #ccc; }
tr:hover { background: #f5f7ff; }
.meta td { font-family: inherit; }
.bar { position: relative; width: 320px; height: 10px; background: #eef; }
.bar span { position: absolute; top: 0; height: 10px; background: #4464d0; min-width: 1px; }
.i .bar span { background: #d08a44; }
.bad td.name { color: #b0303c; }
.dim { color: #777; }
</style></head><body>
<h1>flight capture <code>{{.C.ID}}</code> — {{.C.Grammar}}{{if .C.Rule}} / {{.C.Rule}}{{end}}</h1>
<table class="meta">
<tr><td>trigger</td><td><b>{{.C.Trigger}}</b></td><td>status</td><td>{{.C.Status}}</td></tr>
<tr><td>request_id</td><td><code>{{.C.RequestID}}</code></td><td>trace_id</td><td><code>{{.C.TraceID}}</code></td></tr>
<tr><td>endpoint</td><td>{{.C.Endpoint}}</td><td>duration</td><td>{{.C.DurUS}}&micro;s</td></tr>
<tr><td>events</td><td>{{.C.EventCount}}{{if .C.Dropped}} (+{{.C.Dropped}} dropped){{end}}</td>
<td>backtracks</td><td>{{.C.Stats.BacktrackEvents}} ({{.C.Stats.BacktrackTokens}} tokens wasted)</td></tr>
</table>
<p class="dim">window {{.Span}}&micro;s &mdash; bars show each event's offset and duration within the capture.</p>
<table>
<tr><th>ts&micro;s</th><th>dur&micro;s</th><th>timeline</th><th>event</th><th>rule</th><th>dec</th><th>alt</th><th>k</th><th>throttle</th><th>detail</th></tr>
{{range .Rows}}<tr class="{{.Class}}"><td>{{.TS}}</td><td>{{.Dur}}</td>
<td><div class="bar"><span style="left:{{.Left}}%;width:{{.Width}}%"></span></div></td>
<td class="name">{{.Name}}</td><td>{{.Rule}}</td><td>{{.Dec}}</td><td>{{.Alt}}</td><td>{{.K}}</td><td>{{.Throttle}}</td><td>{{.Detail}}</td></tr>
{{end}}</table>
</body></html>
`))

type htmlRow struct {
	TS, Dur               int64
	Left, Width           float64
	Class                 string
	Name, Rule, Detail    string
	Dec, Alt, K, Throttle string
}

// WriteHTML renders the capture as a self-contained HTML timeline.
func (c *Capture) WriteHTML(w io.Writer) error {
	lo, hi := int64(0), int64(1)
	if len(c.Events) > 0 {
		lo = c.Events[0].TSUS
		hi = lo
		for _, e := range c.Events {
			if e.TSUS < lo {
				lo = e.TSUS
			}
			if end := e.TSUS + e.DurUS; end > hi {
				hi = end
			}
		}
		if hi == lo {
			hi = lo + 1
		}
	}
	span := hi - lo
	rows := make([]htmlRow, 0, len(c.Events))
	for _, e := range c.Events {
		row := htmlRow{
			TS:       e.TSUS - lo,
			Dur:      e.DurUS,
			Left:     100 * float64(e.TSUS-lo) / float64(span),
			Width:    100 * float64(e.DurUS) / float64(span),
			Name:     e.Name,
			Rule:     e.Rule,
			Throttle: e.Throttle,
			Detail:   e.Detail,
		}
		if row.Width < 0.3 {
			row.Width = 0.3
		}
		if e.Ph == string(obs.PhInstant) {
			row.Class = "i"
		}
		if !e.OK && (e.Name == "parse" || e.Name == "predict" || e.Name == "error") {
			row.Class = strings.TrimSpace(row.Class + " bad")
		}
		if e.Decision != nil {
			row.Dec = fmt.Sprint(*e.Decision)
		}
		if e.Alt != 0 {
			row.Alt = fmt.Sprint(e.Alt)
		}
		if e.K != 0 {
			row.K = fmt.Sprint(e.K)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].TS < rows[j].TS })
	return htmlTmpl.Execute(w, struct {
		C    *Capture
		Span int64
		Rows []htmlRow
	}{c, span, rows})
}
