package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"llstar/internal/cluster"
	"llstar/internal/gcache"
	"llstar/internal/obs"
)

// forwardedHeader is the single-hop loop guard: a request carrying it
// was already routed by a peer and is always served locally, so a
// stale or divergent ring view can never bounce a request around the
// fleet.
const forwardedHeader = "X-Llstar-Forwarded"

// AttachCluster puts the server in fleet mode. Call it after New and
// before serving traffic (the cluster needs the replica's bound
// address, so the caller typically listens first, then attaches):
//
//   - grammar requests this replica does not own are proxied one hop
//     to the owner (body-buffered endpoints fall back to local serving
//     if the owner is unreachable — every replica can serve every
//     grammar, ownership only steers load);
//   - missing .llsc artifacts are pulled from peers before live
//     analysis (Registry pre-warm through Cluster.FetchArtifact);
//   - the in-flight budget becomes replica-aware: the configured
//     MaxInFlight is a fleet-wide budget divided by live replicas;
//   - /readyz reports ring size and quorum, /v1/cluster serves the
//     topology, and session ids are minted self-owned so ring routing
//     gives session affinity for free.
func (s *Server) AttachCluster(c *cluster.Cluster) {
	s.reg.Fetch = c.FetchArtifact
	if names, err := s.reg.Names(); err == nil {
		c.SetGrammars(names)
	}
	s.cl.Store(c)
	s.recomputeClusterLimit()
	c.OnChange(s.recomputeClusterLimit)
}

// cluster returns the attached fleet view, or nil in single-node mode.
func (s *Server) cluster() *cluster.Cluster { return s.cl.Load() }

// recomputeClusterLimit divides the fleet-wide in-flight budget across
// live replicas. It runs at attach time and on every peer up/down
// transition: losing a replica raises every survivor's share, so the
// fleet's total admitted concurrency stays near the configured budget
// rather than collapsing to budget/N forever.
func (s *Server) recomputeClusterLimit() {
	c := s.cl.Load()
	if c == nil || s.cfg.MaxInFlight <= 0 {
		return
	}
	live := c.LiveCount()
	if live < 1 {
		live = 1
	}
	limit := s.cfg.MaxInFlight / live
	if limit < 1 {
		limit = 1
	}
	s.dynLimit.Store(int64(limit))
	s.mx.Gauge("llstar_cluster_inflight_limit").Set(int64(limit))
}

// newSessionID mints a session id. In fleet mode the id is
// rejection-sampled until this replica owns it on the ring, so any
// peer can route /v1/sessions/{id} back here by pure hashing — session
// affinity without a session directory.
func (s *Server) newSessionID() string {
	if c := s.cluster(); c != nil && c.Size() > 1 {
		return c.MintKey()
	}
	return randHex(16)
}

// routingKey extracts the grammar field from a buffered JSON body
// (both parseRequest and batchRequest spell it "grammar").
func routingKey(body []byte) string {
	var probe struct {
		Grammar string `json:"grammar"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return ""
	}
	return probe.Grammar
}

// shouldRoute decides whether this request leaves routing alone:
// single-node mode, forwarded requests (loop guard), and non-POSTs are
// always served locally.
func (s *Server) shouldRoute(r *http.Request) *cluster.Cluster {
	c := s.cluster()
	if c == nil || c.Size() < 2 {
		return nil
	}
	if r.Header.Get(forwardedHeader) != "" {
		return nil
	}
	return c
}

// maybeProxyJSON routes a body-buffered JSON endpoint (/v1/parse,
// /v1/batch): it reads up to cap bytes of body, decodes the grammar
// field, and — when a live peer owns that grammar — proxies the
// buffered request there. It reports whether it wrote the response.
// Every other case (we own it, owner down, body over cap, no grammar
// field) restores the body and lets the local handler proceed; an
// unreachable owner additionally falls back to local serving, because
// correctness never depends on placement.
func (s *Server) maybeProxyJSON(w http.ResponseWriter, r *http.Request, cap int64) bool {
	c := s.shouldRoute(r)
	if c == nil || r.Method != http.MethodPost || r.Body == nil {
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, cap+1))
	// Restore what we consumed (plus anything beyond the cap still
	// unread) so the local handler sees the original stream and its own
	// MaxBytesReader still enforces the cap.
	rest := r.Body
	r.Body = struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(body), rest), rest}
	if err != nil || int64(len(body)) > cap {
		return false
	}
	grammar := routingKey(body)
	if grammar == "" {
		return false
	}
	owner, self := c.GrammarOwner(grammar)
	if self || !c.Up(owner) {
		return false
	}
	return s.proxyTo(w, r, c, owner, body)
}

// maybeProxyStream routes the streaming endpoint, whose grammar rides
// the query string — no buffering, the raw body streams through the
// proxy. No local fallback after a mid-stream failure; a transport
// error before any bytes were written answers 502.
func (s *Server) maybeProxyStream(w http.ResponseWriter, r *http.Request) bool {
	c := s.shouldRoute(r)
	if c == nil {
		return false
	}
	grammar := r.URL.Query().Get("grammar")
	if grammar == "" {
		return false
	}
	owner, self := c.GrammarOwner(grammar)
	if self || !c.Up(owner) {
		return false
	}
	if s.proxyTo(w, r, c, owner, nil) {
		return true
	}
	// Body partially consumed by the failed attempt: cannot re-serve
	// locally.
	s.countError("parse_stream", "proxy")
	writeError(w, http.StatusBadGateway, "fleet: owner "+owner+" unreachable")
	return true
}

// maybeProxySession routes /v1/sessions/{id} by the id's ring owner
// (ids are minted self-owned at creation, so the owner is the replica
// holding the session state). Bodies are small (MaxSessionBytes) and
// buffered; an unreachable owner yields 502 — the session state lives
// nowhere else.
func (s *Server) maybeProxySession(w http.ResponseWriter, r *http.Request) bool {
	c := s.shouldRoute(r)
	if c == nil {
		return false
	}
	id, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/sessions/"), "/")
	if id == "" {
		return false
	}
	owner, self := c.KeyOwner(id)
	if self {
		return false
	}
	if !c.Up(owner) {
		s.countError("sessions", "proxy")
		writeError(w, http.StatusBadGateway, "fleet: session owner "+owner+" unreachable")
		return true
	}
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSessionBytes+1))
		if err != nil || int64(len(body)) > s.cfg.MaxSessionBytes {
			s.countError("sessions", "request")
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return true
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	if s.proxyTo(w, r, c, owner, body) {
		return true
	}
	s.countError("sessions", "proxy")
	writeError(w, http.StatusBadGateway, "fleet: session owner "+owner+" unreachable")
	return true
}

// proxyTo forwards the request one hop to owner, streaming the
// response back (flushing per write so NDJSON event streams stay
// live). body non-nil replays a buffered body; nil streams r.Body
// through. It reports whether a response was written: a transport
// failure before the upstream responded marks the peer suspect and
// returns false so body-buffered callers can fall back to serving
// locally.
func (s *Server) proxyTo(w http.ResponseWriter, r *http.Request, c *cluster.Cluster, owner string, body []byte) bool {
	var t0 time.Duration
	if s.tr != nil {
		t0 = s.tr.Now()
	}
	start := time.Now()
	// The requestID middleware already stamped (or re-minted) the
	// X-Request-Id and traceparent on the request, and r.Clone carries
	// them to the owner — so both replicas' spans, logs, and flight
	// captures share one trace id. Keep them here for this hop's own
	// span and log line.
	reqID := r.Header.Get(requestIDHeader)
	traceID := traceIDFrom(r.Header.Get(traceparentHeader))
	out := r.Clone(r.Context())
	out.URL.Scheme = "http"
	out.URL.Host = owner
	out.RequestURI = ""
	out.Host = ""
	out.Header.Set(forwardedHeader, c.Self())
	if body != nil {
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.ContentLength = int64(len(body))
	}
	resp, err := c.Client().Do(out)
	if err != nil {
		c.MarkSuspect(owner)
		s.countProxy("error")
		s.finishProxy(t0, start, r.URL.Path, owner, 0, false, reqID, traceID)
		return false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// Count before relaying: once the body is flushed the client may
	// already be reading this replica's metrics.
	s.countProxy("ok")
	for k, vs := range resp.Header {
		if k == "Connection" || k == "Transfer-Encoding" || len(vs) == 0 {
			continue
		}
		w.Header().Set(k, vs[len(vs)-1])
	}
	w.Header().Set("X-Llstar-Served-By", owner)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				break
			}
			// The read that ends the body is not flushed: it goes out
			// when the handler returns, after finishProxy, so a client
			// holding a whole fixed-length response finds the hop logged.
			if rerr == nil && flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			break
		}
	}
	s.finishProxy(t0, start, r.URL.Path, owner, resp.StatusCode, resp.StatusCode < 500, reqID, traceID)
	return true
}

func (s *Server) countProxy(result string) {
	s.mx.Counter(obs.Label("llstar_cluster_proxy_total", "result", result)).Inc()
}

// finishProxy records the origin side of a proxy hop: a cluster.proxy
// span and a "proxy" access-log line, both tagged with the request's
// trace id — proxied requests bypass the instrument middleware here
// (they count against the owner's budget and metrics), so without
// this the origin replica would have no record the request existed.
func (s *Server) finishProxy(t0 time.Duration, start time.Time, path, owner string, status int, ok bool, reqID, traceID string) {
	if s.tr != nil {
		s.tr.Emit(obs.Event{
			Name: "cluster.proxy", Cat: obs.PhaseServer, Ph: obs.PhSpan,
			TS: t0, Dur: s.tr.Now() - t0, Decision: -1,
			OK: ok, N: int64(status),
			Detail: "-> " + owner + " " + reqID + " " + traceID,
		})
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "proxy",
		slog.String("endpoint", path),
		slog.String("owner", owner),
		slog.Int("status", status),
		slog.Bool("ok", ok),
		slog.Float64("dur_ms", float64(time.Since(start))/float64(time.Millisecond)),
		slog.String("request_id", reqID),
		slog.String("trace_id", traceID),
	)
}

// replicaAddr is this replica's cluster address, or "" single-node —
// the Replica tag on flight captures and the Self line of /debug/fleet.
func (s *Server) replicaAddr() string {
	if c := s.cluster(); c != nil {
		return c.Self()
	}
	return ""
}

// handleCluster serves GET /v1/cluster: the fleet topology as this
// replica sees it — ring membership, per-peer health, and the full
// grammar placement. Clients (llstar-parse -server) use it for
// client-side routing; in single-node mode it answers 404 so clients
// know to just use the base URL.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	c := s.cluster()
	if c == nil {
		writeError(w, http.StatusNotFound, "not running in fleet mode")
		return
	}
	writeJSON(w, http.StatusOK, c.Topology())
}

// artifactFingerprint accepts only hex strings of plausible digest
// length, so the endpoint can never be steered at arbitrary cache-dir
// paths.
func artifactFingerprint(s string) bool {
	if len(s) < 16 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// handleArtifact serves GET /v1/artifacts/{fingerprint}: the raw .llsc
// bytes from the shared content-addressed store. This is the fleet's
// artifact-distribution plane — peers call it during pre-warm — and it
// deliberately ignores readiness: a cold replica fetches while the
// serving replica may itself still be preloading. Stat-then-Load under
// the gcache shared lock cannot race an eviction into a read-then-miss.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	cache := s.reg.ArtifactCache()
	if cache == nil {
		s.countArtifact("no_store")
		writeError(w, http.StatusNotFound, "no artifact store configured (start with -cache)")
		return
	}
	fp := strings.TrimPrefix(r.URL.Path, "/v1/artifacts/")
	if !artifactFingerprint(fp) {
		s.countArtifact("bad_fingerprint")
		writeError(w, http.StatusBadRequest, "invalid artifact fingerprint")
		return
	}
	data, err := cache.Load(fp)
	if err == gcache.ErrMiss {
		s.countArtifact("miss")
		writeError(w, http.StatusNotFound, "artifact not cached here")
		return
	}
	if err != nil {
		s.countArtifact("error")
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.countArtifact("hit")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	w.Write(data)
}

func (s *Server) countArtifact(result string) {
	s.mx.Counter(obs.Label("llstar_cluster_artifact_serve_total", "result", result)).Inc()
}

// acquireDynamic is the fleet-mode limiter: an atomic counter against
// the replica's current share of the fleet-wide budget (the share
// moves when peers come and go, which a fixed-capacity channel cannot
// express). Queueing polls with a short tick — crude, but the queue
// wait is bounded and small.
func (s *Server) acquireDynamic(ctx context.Context) (time.Duration, bool) {
	gauge := s.mx.Gauge("llstar_server_inflight")
	try := func() bool {
		limit := s.dynLimit.Load()
		for {
			cur := s.dynFlight.Load()
			if cur >= limit {
				return false
			}
			if s.dynFlight.CompareAndSwap(cur, cur+1) {
				gauge.Add(1)
				return true
			}
		}
	}
	if try() {
		return 0, true
	}
	if s.cfg.QueueWait <= 0 {
		return 0, false
	}
	start := time.Now()
	deadline := time.NewTimer(s.cfg.QueueWait)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if try() {
				return time.Since(start), true
			}
		case <-deadline.C:
			return time.Since(start), false
		case <-ctx.Done():
			return time.Since(start), false
		}
	}
}

func (s *Server) releaseDynamic() {
	s.dynFlight.Add(-1)
	s.mx.Gauge("llstar_server_inflight").Add(-1)
}
