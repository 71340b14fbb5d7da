package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the load generator's connection budget: one load-generating
// process with at most two connections, sized for a two-core machine
// that also runs the server.
const conns = 2

// serveRate is serve-small's fixed offered rate in req/s, about a fifth
// of the two connections' capacity on a two-core machine: high enough to
// overlap requests, low enough that queueing does not amplify run-to-run
// noise.
const serveRate = 40

// child is a running llstar-serve process.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has been waited for
}

// buildServe builds llstar-serve from the source tree the benchmark is
// run in.
func buildServe(dir string) (string, error) {
	bin := filepath.Join(dir, "llstar-serve")
	cmd := exec.Command("go", "build", "-o", bin, "llstar/cmd/llstar-serve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building llstar-serve: %w", err)
	}
	return bin, nil
}

// startServe starts llstar-serve in dir, which holds the grammars in
// ./grammars (the command's default), on an ephemeral port, with every
// other flag at its default. It returns once /readyz answers 200, with
// the time from exec to ready.
func startServe(bin, dir string, n int) (*child, time.Duration, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", n))
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("serve-%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child has its own descriptor
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(c.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := t0.Add(2 * time.Minute)
	for {
		if c.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				c.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if c.base != "" {
			if resp, err := hc.Get(c.base + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return c, time.Since(t0), nil
				}
			}
		}
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("llstar-serve exited during start-up; see %s", logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, fmt.Errorf("llstar-serve not ready after 2m; see %s", logf.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, kills it if it lingers, and
// waits until it has exited.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// childStats is a snapshot of the server's CPU time and Go memory
// statistics.
type childStats struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint64
	pauseNs    []uint64 // runtime.MemStats.PauseNs, a ring of recent pauses
}

// snapshot reads the child's CPU time from /proc and its memory
// statistics from the runtime.MemStats block of /debug/pprof/heap.
func (c *child) snapshot(hc *http.Client) (childStats, error) {
	var st childStats
	cpu, err := procCPU(c.cmd.Process.Pid)
	if err != nil {
		return st, err
	}
	st.cpu = cpu
	resp, err := hc.Get(c.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "TotalAlloc":
			st.totalAlloc, err = strconv.ParseUint(v, 10, 64)
		case "NumGC":
			st.numGC, err = strconv.ParseUint(v, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, perr := strconv.ParseUint(f, 10, 64)
				if perr != nil {
					err = perr
				}
				st.pauseNs = append(st.pauseNs, n)
			}
		}
		if err != nil {
			return st, fmt.Errorf("parsing %s from /debug/pprof/heap: %w", k, err)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if len(st.pauseNs) != 256 {
		return st, fmt.Errorf("/debug/pprof/heap has no runtime.MemStats block")
	}
	return st, nil
}

// pauseSince sums the GC pauses between an earlier snapshot and s.
func (s childStats) pauseSince(before childStats) uint64 {
	var total uint64
	for n := before.numGC + 1; n <= s.numGC && n+256 > s.numGC; n++ {
		total += s.pauseNs[(n+255)%256]
	}
	return total
}

// client is the load generator's HTTP side.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// sample is one request's timeline.
type sample struct {
	in              int       // index of the input sent
	due, sent, done time.Time // due is when the schedule wanted it sent
	elapsed         time.Duration
	shed            bool
	err             error
}

// send posts one request and checks the served tree.
func (c *client) send(s *sample, body []byte, in input) {
	s.sent = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/parse", "application/json", bytes.NewReader(body))
	if err == nil {
		var b []byte
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.done = time.Now()
		s.shed = resp.StatusCode == http.StatusTooManyRequests
		if err == nil {
			var rep parseReply
			rep, err = checkReply(resp.StatusCode, b, in)
			s.elapsed = time.Duration(rep.ElapsedUS) * time.Microsecond
		}
	} else {
		s.done = time.Now()
	}
	s.err = err
}

// arrival is one scheduled request.
type arrival struct {
	at time.Duration // offset from the phase start
	in int
}

// schedule draws a Poisson arrival process of the given rate over d,
// conditioned on its expected count: that many uniform arrival times,
// sorted, so the offered rate is exact. The requests cycle through the
// grammars in a shuffled order, so every grammar gets the same share
// whatever the seed, and each draws one of its grammar's variants.
func schedule(rng *rand.Rand, rate float64, d time.Duration, grammars, variants int) []arrival {
	n := int(math.Round(rate * d.Seconds()))
	out := make([]arrival, n)
	for i := range out {
		out[i].at = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	for i, in := range balanced(rng, n, grammars, variants) {
		out[i].in = in
	}
	return out
}

// balanced draws n input indexes (grammar-major, variants per grammar)
// cycling through the grammars in shuffled order.
func balanced(rng *rand.Rand, n, grammars, variants int) []int {
	out := make([]int, n)
	var order []int
	for i := range out {
		if i%grammars == 0 {
			order = rng.Perm(grammars)
		}
		out[i] = order[i%grammars]*variants + rng.Intn(variants)
	}
	return out
}

// sleepUntil blocks the calling thread until t. A plain nanosleep wakes
// within tens of microseconds; time.Sleep rounds through the runtime's
// millisecond poller timeout and dispatches about half a millisecond
// late.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the request late
	}
}

// openLoop sends every arrival at its due time whether or not earlier
// requests have finished, over at most conns connections; a request
// that finds both busy waits in the queue, and that wait counts in its
// latency. It returns the samples and how late the generator itself
// dispatched each request, in ms.
func (c *client) openLoop(ins []input, bodies [][]byte, arrivals []arrival) ([]sample, []float64) {
	samples := make([]sample, len(arrivals))
	jobs := make(chan int, len(arrivals)) // one slot per request: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := &samples[i]
				c.send(s, bodies[s.in], ins[s.in])
			}
		}()
	}
	start := time.Now()
	lag := make([]float64, len(arrivals))
	for i, a := range arrivals {
		due := start.Add(a.at)
		samples[i].in, samples[i].due = a.in, due
		sleepUntil(due)
		lag[i] = ms(float64(time.Since(due)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples, lag
}

// closedLoop keeps conns requests outstanding for d, each connection
// sending its next request as soon as the previous one completes, and
// returns the samples and the time the last one took to finish.
func (c *client) closedLoop(ins []input, bodies [][]byte, seq []int, d time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, conns)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := seq[int(next.Add(1)-1)%len(seq)]
				s := sample{in: i}
				c.send(&s, bodies[i], ins[i])
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// runServeSmall drives a child llstar-serve with small parse requests:
// an open loop at a fixed offered rate for latency, then a closed loop
// on every connection for capacity.
func runServeSmall(r *run) error {
	sp, err := specs()
	if err != nil {
		return err
	}
	ins := r.genInputs(sp, purposeSmall, r.cfg.variants, r.cfg.smallLines)
	gs, err := loadAll(sp)
	if err != nil {
		return err
	}
	if err := expect(sp, gs, ins); err != nil {
		return err
	}
	bodies := make([][]byte, len(ins))
	for i, in := range ins {
		if bodies[i], err = requestBody(sp[in.g], in); err != nil {
			return err
		}
	}
	bin, err := buildServe(r.tmp)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.tmp, "serve")
	if err := writeGrammars(sp, filepath.Join(dir, "grammars")); err != nil {
		return err
	}

	var srv *child
	var setups []time.Duration
	for i := 0; i < r.cfg.setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		c, d, err := startServe(bin, dir, i)
		if err != nil {
			return err
		}
		srv = c
		setups = append(setups, d)
	}
	defer srv.stop()

	cl := newClient(srv.base)
	rng := r.rng(purposeSchedule)
	warm := min(time.Second, r.cfg.measure/5)
	fixed := r.cfg.measure * 3 / 4
	r.addInput(fmt.Sprint("rate", serveRate, "fixed", fixed, "seed", subSeed(r.cfg.seed, purposeSchedule, 0, 0)))

	cl.openLoop(ins, bodies, schedule(rng, serveRate, warm, len(sp), r.cfg.variants))
	before, err := srv.snapshot(cl.hc)
	if err != nil {
		return err
	}
	arrivals := schedule(rng, serveRate, fixed, len(sp), r.cfg.variants)
	samples, lag := cl.openLoop(ins, bodies, arrivals)
	after, err := srv.snapshot(cl.hc)
	if err != nil {
		return err
	}

	seq := balanced(rng, 1<<14, len(sp), r.cfg.variants)
	cl.closedLoop(ins, bodies, seq, warm)
	capSamples, capElapsed := cl.closedLoop(ins, bodies, seq, r.cfg.measure-fixed)
	rss, err := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return err
	}

	lat := make([][]float64, len(sp))
	var wait, parse, overhead []float64
	shed, served := 0, 0
	for i, s := range samples {
		g := ins[s.in].g
		lat[g] = append(lat[g], ms(float64(s.done.Sub(s.due))))
		wait = append(wait, ms(float64(s.sent.Sub(s.due))))
		if s.shed {
			shed++
		}
		r.res.Attempted++
		if s.err != nil {
			r.fail(fmt.Errorf("%s: %w", sp[g].stem, s.err))
			continue
		}
		parse = append(parse, ms(float64(s.elapsed)))
		overhead = append(overhead, ms(float64(s.done.Sub(s.sent)-s.elapsed)))
		if r.tr != nil {
			stem := sp[g].stem
			r.tr.add("loadgen.wait", s.due, s.sent.Sub(s.due), -1, int64(i), stem, 1)
			rt := s.done.Sub(s.sent)
			p := r.tr.add("http.roundtrip", s.sent, rt, -1, int64(i), stem, 2)
			r.tr.add("server.parse", s.sent.Add((rt-s.elapsed)/2), s.elapsed, p, int64(i), stem, 2)
		}
	}
	for _, s := range capSamples {
		r.res.Attempted++
		if s.err != nil {
			r.fail(fmt.Errorf("%s: %w", sp[ins[s.in].g].stem, s.err))
			continue
		}
		served++
	}

	// The schedule fixes the offered rate; the generator achieves less
	// when it dispatches the phase's last request after the phase ends.
	n := len(arrivals)
	dispatched := arrivals[n-1].at + time.Duration(lag[n-1]*float64(time.Millisecond))
	offered := float64(n) / fixed.Seconds()
	achieved := float64(n) / max(fixed, dispatched).Seconds()
	r.res.Extra = []metric{
		{Name: "loadgen.offered_rps", Value: offered, Unit: "1/s"},
		{Name: "loadgen.achieved_rps", Value: achieved, Unit: "1/s"},
		{Name: "loadgen.wait_ms_p99", Value: quantile(wait, 0.99), Unit: "ms"},
		{Name: "loadgen.lag_ms_p99", Value: quantile(lag, 0.99), Unit: "ms"},
		{Name: "loadgen.lag_ms_max", Value: quantile(lag, 1), Unit: "ms"},
		{Name: "serve.requests", Value: float64(len(samples)), Unit: "count"},
		{Name: "serve.parse_ms_p50", Value: median(parse), Unit: "ms"},
		{Name: "serve.overhead_ms_p50", Value: median(overhead), Unit: "ms"},
		{Name: "serve.shed_total", Value: float64(shed), Unit: "count"},
	}
	// The guard is on the 99th percentile of lateness, not the maximum:
	// on a busy two-core VM a single dispatch is now and then held back
	// several milliseconds by the hypervisor or the kernel scheduler,
	// whatever the generator does, and that delay is counted in the
	// request's latency anyway.
	if late := quantile(lag, 0.99); achieved < 0.98*offered || late > 5 {
		return fmt.Errorf("invalid run, the load generator could not hold its schedule: it achieved %.1f of %.1f req/s and ran %.2f ms late at p99", achieved, offered, late)
	}

	r.setE2E(setups, lat, float64(served)/capElapsed.Seconds(), rss)
	proc := procMetrics(float64(after.cpu-before.cpu), float64(after.totalAlloc-before.totalAlloc),
		float64(after.pauseSince(before)), len(samples), fixed)
	return r.probe(sp, gs, ins, proc)
}
