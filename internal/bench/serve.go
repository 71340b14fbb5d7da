package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"llstar/internal/server"
)

// ServeLoadOptions configures the llstar-serve load harness.
type ServeLoadOptions struct {
	// URL targets a running llstar-serve instance (e.g. from another
	// machine). Empty starts an in-process server over the six benchmark
	// grammars and drives that.
	URL string
	// Concurrency is the number of closed-loop clients (default 16).
	Concurrency int
	// Duration is how long the clients run (default 5s).
	Duration time.Duration
	// Seed and Lines shape the generated inputs (defaults 1 and 200).
	Seed  int64
	Lines int
}

// serveTarget is one grammar in the request mix.
type serveTarget struct {
	workload Workload
	grammar  string // name on the server
	inputs   []string
}

// serveSample aggregates one client's observations for one grammar.
type serveSample struct {
	latencies []time.Duration // successful requests only
	ok        int
	shed      int // 429
	failed    int
	firstErr  string
}

// ServeLoad drives an llstar-serve instance with closed-loop clients
// round-robining the six benchmark workloads, then prints a per-grammar
// latency/throughput table (p50/p95/p99, requests/sec) — the serving
// analogue of the ConcurrentParses table. With opts.URL empty it
// boots an in-process server first, so `llstar-bench -serve` works out
// of the box.
func ServeLoad(out io.Writer, opts ServeLoadOptions) error {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 16
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Lines <= 0 {
		opts.Lines = 200
	}

	base := opts.URL
	if base == "" {
		url, shutdown, err := startBenchServer(opts.Concurrency)
		if err != nil {
			return err
		}
		defer shutdown()
		base = url
	}
	base = strings.TrimRight(base, "/")

	// Pregenerate a few input variants per workload so the hot loop
	// only does HTTP.
	targets := make([]serveTarget, len(Workloads))
	for i, w := range Workloads {
		t := serveTarget{workload: w, grammar: strings.TrimSuffix(w.File, ".g")}
		for v := int64(0); v < 4; v++ {
			t.inputs = append(t.inputs, w.Input(opts.Seed+v, opts.Lines))
		}
		targets[i] = t
	}

	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        opts.Concurrency * 2,
			MaxIdleConnsPerHost: opts.Concurrency * 2,
		},
	}
	// One warmup request per grammar: server-side lazy loads and pool
	// fills happen outside the measured window.
	for _, t := range targets {
		if _, _, err := serveOnce(client, base, t, 0); err != nil {
			return fmt.Errorf("warmup %s: %w", t.grammar, err)
		}
	}

	stop := time.Now().Add(opts.Duration)
	perClient := make([]map[string]*serveSample, opts.Concurrency)
	var wg sync.WaitGroup
	measureStart := time.Now()
	for c := 0; c < opts.Concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples := map[string]*serveSample{}
			perClient[c] = samples
			for i := 0; time.Now().Before(stop); i++ {
				t := targets[(c+i)%len(targets)]
				s := samples[t.grammar]
				if s == nil {
					s = &serveSample{}
					samples[t.grammar] = s
				}
				code, dur, err := serveOnce(client, base, t, (c+i)%len(t.inputs))
				switch {
				case err != nil:
					s.failed++
					if s.firstErr == "" {
						s.firstErr = err.Error()
					}
				case code == http.StatusOK:
					s.ok++
					s.latencies = append(s.latencies, dur)
				case code == http.StatusTooManyRequests:
					s.shed++
				default:
					s.failed++
					if s.firstErr == "" {
						s.firstErr = fmt.Sprintf("HTTP %d", code)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(measureStart)

	// Merge per-client samples per grammar.
	merged := map[string]*serveSample{}
	for _, samples := range perClient {
		for name, s := range samples {
			m := merged[name]
			if m == nil {
				m = &serveSample{}
				merged[name] = m
			}
			m.ok += s.ok
			m.shed += s.shed
			m.failed += s.failed
			m.latencies = append(m.latencies, s.latencies...)
			if m.firstErr == "" {
				m.firstErr = s.firstErr
			}
		}
	}

	fmt.Fprintf(out, "target: %s   clients: %d   duration: %v\n",
		base, opts.Concurrency, elapsed.Round(time.Millisecond))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Grammar\trequests\tok\t429\terr\tp50\tp95\tp99\treq/s\n")
	total := &serveSample{}
	for _, t := range targets {
		m := merged[t.grammar]
		if m == nil {
			continue
		}
		printServeRow(tw, t.workload.Name, m, elapsed)
		total.ok += m.ok
		total.shed += m.shed
		total.failed += m.failed
		total.latencies = append(total.latencies, m.latencies...)
		if total.firstErr == "" {
			total.firstErr = m.firstErr
		}
	}
	printServeRow(tw, "TOTAL", total, elapsed)
	if err := tw.Flush(); err != nil {
		return err
	}
	if total.firstErr != "" {
		fmt.Fprintf(out, "first error: %s\n", total.firstErr)
	}
	return nil
}

func printServeRow(tw io.Writer, name string, s *serveSample, elapsed time.Duration) {
	n := s.ok + s.shed + s.failed
	fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%.0f\n",
		name, n, s.ok, s.shed, s.failed,
		percentile(s.latencies, 0.50), percentile(s.latencies, 0.95),
		percentile(s.latencies, 0.99), float64(s.ok)/elapsed.Seconds())
}

// percentile returns the q-quantile of ds (nearest-rank), rounded for
// display. It sorts in place.
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
	return ds[idx].Round(10 * time.Microsecond)
}

// serveOnce sends one parse request and reports status and latency.
func serveOnce(client *http.Client, base string, t serveTarget, variant int) (int, time.Duration, error) {
	body, err := json.Marshal(map[string]string{
		"grammar": t.grammar,
		"rule":    t.workload.Start,
		"input":   t.inputs[variant],
	})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), nil
}

// startBenchServer materializes the six benchmark grammars into a temp
// directory and serves them from an in-process llstar-serve on an
// ephemeral port. The returned shutdown also removes the directory.
func startBenchServer(concurrency int) (url string, shutdown func(), err error) {
	dir, err := os.MkdirTemp("", "llstar-serve-bench-")
	if err != nil {
		return "", nil, err
	}
	cleanupDir := func() { os.RemoveAll(dir) }
	for _, w := range Workloads {
		text, err := w.GrammarText()
		if err != nil {
			cleanupDir()
			return "", nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, w.File), []byte(text), 0o644); err != nil {
			cleanupDir()
			return "", nil, err
		}
	}
	maxInFlight := 64
	if n := concurrency * 2; n > maxInFlight {
		maxInFlight = n
	}
	s, err := server.New(server.Config{
		GrammarDir:   dir,
		MaxInFlight:  maxInFlight,
		MaxBodyBytes: 64 << 20, // big generated inputs are the point
		Preload:      []string{"all"},
		// Warnings only: an access-log line per request would time the
		// logger, not the parse service.
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		cleanupDir()
		return "", nil, err
	}
	if err := s.Preload(); err != nil {
		cleanupDir()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanupDir()
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	shutdown = func() {
		hs.Close()
		cleanupDir()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
