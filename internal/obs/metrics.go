package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"llstar/internal/runtime"
)

// Metrics is a registry of named counters, gauges, and bounded
// histograms. Instruments are created on first use and accumulate
// across parses; a registry may be shared by several parsers and the
// analysis. All instruments are safe for concurrent use.
//
// Names follow Prometheus conventions (snake_case, `_total` suffix for
// counters) and may carry a label set rendered into the name with
// Label, e.g. `llstar_predict_events_total{throttle="fixed"}`. The full
// metric vocabulary is documented in docs/observability.md.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Label renders a metric name with a label set, preserving pair order:
// Label("x_total", "a", "1", "b", "2") == `x_total{a="1",b="2"}`.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a rendered metric name into its family and label
// part: `x{a="1"}` -> ("x", `a="1"`).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultBuckets are the histogram upper bounds used when none are
// given: runtime.DepthBounds, powers of two covering lookahead and
// speculation depths.
var DefaultBuckets = runtime.DepthBounds[:]

// Histogram is a bounded histogram over int64 observations: a fixed
// set of cumulative-style buckets plus sum, count, and max.
type Histogram struct {
	bounds []int64        // upper bounds (inclusive), ascending
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	h.raiseMax(v)
}

// merge adds observations counted elsewhere; h must use the default
// buckets.
func (h *Histogram) merge(a *runtime.Hist) {
	for i, c := range a.Buckets {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(a.Sum)
	h.n.Add(a.N)
	h.raiseMax(a.Max)
}

func (h *Histogram) raiseMax(v int64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Counter returns (creating if needed) the named counter.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. bounds
// apply only on first creation; empty means DefaultBuckets.
func (m *Metrics) Histogram(name string, bounds ...int64) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram(bounds)
		m.hists[name] = h
	}
	return h
}

// series is one named instrument scheduled for export: deterministic
// exporters collect every series, sort globally by (family, name), and
// only then render, so two exports of the same registry are
// byte-identical regardless of map iteration or registration order.
type series struct {
	name   string
	family string
	kind   string // "counter", "gauge", "histogram"
}

// collect returns every registered series sorted by family, then kind,
// then full name. Callers must hold m.mu.
func (m *Metrics) collect() []series {
	all := make([]series, 0, len(m.counters)+len(m.gauges)+len(m.hists))
	add := func(name, kind string) {
		family, _ := splitName(name)
		all = append(all, series{name: name, family: family, kind: kind})
	}
	for name := range m.counters {
		add(name, "counter")
	}
	for name := range m.gauges {
		add(name, "gauge")
	}
	for name := range m.hists {
		add(name, "histogram")
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		if all[i].kind != all[j].kind {
			return all[i].kind < all[j].kind
		}
		return all[i].name < all[j].name
	})
	return all
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format. Output is deterministic: series are globally
// sorted by family then name (label sets of one family stay adjacent
// under a single `# TYPE` header), so scrapes and golden tests are
// stable diff-to-diff.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	typed := map[string]bool{} // families with a TYPE line already out
	header := func(name, kind string) string {
		family, _ := splitName(name)
		if typed[family] {
			return ""
		}
		typed[family] = true
		return fmt.Sprintf("# TYPE %s %s\n", family, kind)
	}

	for _, s := range m.collect() {
		switch s.kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s%s %d\n", header(s.name, "counter"), s.name, m.counters[s.name].Value()); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s%s %d\n", header(s.name, "gauge"), s.name, m.gauges[s.name].Value()); err != nil {
				return err
			}
		case "histogram":
			if err := m.promHistogram(w, s.name, header(s.name, "histogram")); err != nil {
				return err
			}
		}
	}
	return nil
}

// promHistogram renders one histogram series (buckets, sum, count).
// Callers must hold m.mu.
func (m *Metrics) promHistogram(w io.Writer, name, typeHeader string) error {
	h := m.hists[name]
	family, labels := splitName(name)
	if _, err := io.WriteString(w, typeHeader); err != nil {
		return err
	}
	render := func(suffix, extraLabels string) string {
		all := labels
		if extraLabels != "" {
			if all != "" {
				all += ","
			}
			all += extraLabels
		}
		if all == "" {
			return family + suffix
		}
		return family + suffix + "{" + all + "}"
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", render("_bucket", fmt.Sprintf("le=%q", fmt.Sprint(b))), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s %d\n", render("_bucket", `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n", render("_sum", ""), h.Sum(), render("_count", ""), h.Count()); err != nil {
		return err
	}
	return nil
}

// WriteJSON renders the registry as a single expvar-style JSON object:
// counters and gauges as numbers, histograms as
// {count, sum, max, buckets}. Keys are emitted in the same globally
// sorted order as WritePrometheus, and histogram buckets in ascending
// bound order (+Inf last), so repeated exports of one registry are
// byte-identical.
func (m *Metrics) WriteJSON(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var buf bytes.Buffer
	buf.WriteByte('{')
	first := true
	for _, s := range m.collect() {
		var val []byte
		switch s.kind {
		case "counter":
			val = []byte(fmt.Sprint(m.counters[s.name].Value()))
		case "gauge":
			val = []byte(fmt.Sprint(m.gauges[s.name].Value()))
		case "histogram":
			val = histValueJSON(m.hists[s.name])
		}
		if !first {
			buf.WriteByte(',')
		}
		first = false
		buf.WriteString("\n  ")
		key, err := json.Marshal(s.name)
		if err != nil {
			return err
		}
		buf.Write(key)
		buf.WriteString(": ")
		buf.Write(val)
	}
	if !first {
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// histValueJSON renders one histogram as {count, sum, max, buckets}
// with buckets in ascending bound order.
func histValueJSON(h *Histogram) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"count": %d, "sum": %d, "max": %d, "buckets": {`, h.Count(), h.Sum(), h.Max())
	first := true
	emit := func(bound string, n int64) {
		if n <= 0 {
			return
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%q: %d", bound, n)
	}
	for i, bound := range h.bounds {
		emit(fmt.Sprint(bound), h.counts[i].Load())
	}
	emit("+Inf", h.counts[len(h.bounds)].Load())
	b.WriteString("}}")
	return b.Bytes()
}
