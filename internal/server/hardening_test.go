package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bfast/internal/sched"
)

// errEnvelope decodes the {"error":{"code","message"}} wire shape.
func errEnvelope(t *testing.T, body []byte) errorDetail {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not structured: %v: %s", err, body)
	}
	if e.Error.Code == "" {
		t.Fatalf("error body missing code: %s", body)
	}
	return e.Error
}

// TestDeclaredLengthMismatch is the regression test for the n-vs-data
// framing check: an over-long series against a declared n must fail with
// a structured 400 length_mismatch, not silently compute on bad framing.
func TestDeclaredLengthMismatch(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()

	// Over-long series: 25 values declared as n=20.
	resp, body := post(t, ts, "/v1/detect", map[string]any{
		"series": make([]float64, 25), "n": 20, "history": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeLengthMismatch {
		t.Fatalf("code %q, want %q", e.Code, CodeLengthMismatch)
	}

	// Matching n passes the framing check (fails later only if params bad).
	resp, body = post(t, ts, "/v1/detect", map[string]any{
		"series": make([]float64, 25), "n": 25, "history": 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching n: status %d: %s", resp.StatusCode, body)
	}

	// Batch: declared n binds every pixel row.
	resp, body = post(t, ts, "/v1/batch", map[string]any{
		"pixels": [][]float64{make([]float64, 20), make([]float64, 25)}, "n": 20, "history": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeLengthMismatch {
		t.Fatalf("batch code %q, want %q", e.Code, CodeLengthMismatch)
	}
}

func TestBodyAndBatchLimits(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{MaxBodyBytes: 128, MaxBatchPixels: 2}))
	defer ts.Close()

	big := `{"series": [` + strings.Repeat("0.5,", 200) + `0.5], "history": 10}`
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, buf.Bytes())
	}
	if e := errEnvelope(t, buf.Bytes()); e.Code != CodeBodyTooLarge {
		t.Fatalf("code %q, want %q", e.Code, CodeBodyTooLarge)
	}

	resp2, body := post(t, ts, "/v1/batch", map[string]any{
		"pixels":  [][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)},
		"history": 2,
	})
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch status %d, want 413: %s", resp2.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeBatchTooLarge {
		t.Fatalf("code %q, want %q", e.Code, CodeBatchTooLarge)
	}
}

// TestConcurrencyLimit429 fills the semaphore and verifies the next
// request is rejected immediately with 429 + Retry-After, then succeeds
// once a slot frees up.
func TestConcurrencyLimit429(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.sem <- struct{}{} // occupy the only compute slot
	resp, body := post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if e := errEnvelope(t, body); e.Code != CodeRateLimited {
		t.Fatalf("code %q, want %q", e.Code, CodeRateLimited)
	}
	if got := s.rateLimited.Value(); got < 1 {
		t.Fatalf("server.rate_limited = %d, want >= 1", got)
	}

	<-s.sem // free the slot; the same request now computes
	resp, body = post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after free: status %d: %s", resp.StatusCode, body)
	}
}

// TestBatchCancellationMidRequest verifies a canceled request abandons
// the batch kernel promptly (no steal units run for a pre-canceled
// context), records the canceled outcome, and releases its concurrency
// slot so the next request proceeds.
func TestBatchCancellationMidRequest(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1})

	rng := rand.New(rand.NewSource(11))
	pixels := make([]Series, 64)
	for i := range pixels {
		pixels[i] = jsonSeries(rng, 200, -1, 0.2)
	}
	raw, err := json.Marshal(DetectRequest{Pixels: pixels, History: 100})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the kernel starts
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()

	ranBefore := sched.StatBlocksRun.Value()
	canceledBefore := s.cfg.Metrics.Counter("server.batch.canceled").Value()
	s.ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}
	if e := errEnvelope(t, rec.Body.Bytes()); e.Code != CodeCanceled {
		t.Fatalf("code %q, want %q", e.Code, CodeCanceled)
	}
	if ran := sched.StatBlocksRun.Value() - ranBefore; ran != 0 {
		t.Fatalf("canceled request still ran %d steal units", ran)
	}
	if got := s.cfg.Metrics.Counter("server.batch.canceled").Value() - canceledBefore; got != 1 {
		t.Fatalf("server.batch.canceled delta = %d, want 1", got)
	}

	// The slot must be free again: a live request on the same server works.
	req2 := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw))
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", rec2.Code, rec2.Body.String())
	}
}

// TestGracefulShutdownDrains starts a real listener, gets a request
// in flight, and verifies Shutdown waits for it to finish (200, full
// body) while Serve returns http.ErrServerClosed.
func TestGracefulShutdownDrains(t *testing.T) {
	s := mustServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	rng := rand.New(rand.NewSource(12))
	pixels := make([]Series, 2048)
	for i := range pixels {
		pixels[i] = jsonSeries(rng, 300, -1, 0.2)
	}
	raw, err := json.Marshal(DetectRequest{Pixels: pixels, History: 150})
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		code int
		n    int
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+l.Addr().String()+"/v1/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var out []DetectResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		done <- reply{code: resp.StatusCode, n: len(out), err: err}
	}()

	// Wait until the request is actually computing.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK || r.n != len(pixels) {
		t.Fatalf("drained request: status %d, %d results (want 200, %d)", r.code, r.n, len(pixels))
	}
}

// TestHealthzDraining503 verifies the load-balancer signal flips during
// shutdown.
func TestHealthzDraining503(t *testing.T) {
	s := mustServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy: status %d", rec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil { // no listener: enters draining only
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", rec.Code)
	}
	if e := errEnvelope(t, rec.Body.Bytes()); e.Code != CodeUnavailable {
		t.Fatalf("code %q, want %q", e.Code, CodeUnavailable)
	}
}

// TestMetricsEndpoint drives one request of each class and checks the
// /metrics JSON carries the serving, scheduler and kernel-phase series
// the CI smoke test greps for.
func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()

	rng := rand.New(rand.NewSource(13))
	pixels := []Series{jsonSeries(rng, 200, 150, 0.3), jsonSeries(rng, 200, -1, 0.3)}
	if resp, body := post(t, ts, "/v1/batch", DetectRequest{Pixels: pixels, History: 100}); resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"server.batch.requests", "server.batch.ok", "server.batch.latency_ms",
		"server.inflight", "server.rate_limited",
		"sched.blocks.run", "sched.loops", "kernel.pixels", "kernel.fused.ns",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	if h, ok := m["server.batch.latency_ms"].(map[string]any); !ok {
		t.Fatalf("latency histogram shape: %T", m["server.batch.latency_ms"])
	} else if c, _ := h["count"].(float64); c < 1 {
		t.Fatalf("latency count = %v, want >= 1", h["count"])
	}
	if v, ok := m["server.batch.requests"].(float64); !ok || v < 1 {
		t.Fatalf("server.batch.requests = %v, want >= 1", m["server.batch.requests"])
	}
	if v, ok := m["kernel.pixels"].(float64); !ok || v < 2 {
		t.Fatalf("kernel.pixels = %v, want >= 2", m["kernel.pixels"])
	}
}

// TestDebugEndpoint checks /debug/bfast exposes limits and the trace ring.
func TestDebugEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{TraceDepth: 8}))
	defer ts.Close()
	post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})

	resp, err := http.Get(ts.URL + "/debug/bfast")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbg struct {
		Limits map[string]any `json:"limits"`
		Traces []struct {
			Endpoint string `json:"endpoint"`
			Code     int    `json:"code"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Limits["max_concurrent"] == nil {
		t.Fatal("debug missing limits")
	}
	if len(dbg.Traces) == 0 || dbg.Traces[len(dbg.Traces)-1].Endpoint != "detect" {
		t.Fatalf("debug traces missing the detect request: %+v", dbg.Traces)
	}
}

func TestDisableDebug(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{DisableDebug: true}))
	defer ts.Close()
	for _, p := range []string{"/metrics", "/debug/bfast"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestRetryAfterConfigurable: the 429 Retry-After hint must follow
// Config.RetryAfterSeconds (default 1).
func TestRetryAfterConfigurable(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1, RetryAfterSeconds: 7})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, body := post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	if got := mustServer(t, Config{}).Config().RetryAfterSeconds; got != 1 {
		t.Fatalf("default RetryAfterSeconds = %d, want 1", got)
	}
}

// TestReadBodyGrowth bounds what readBody allocates for a large body:
// with a declared Content-Length it starts at up to 1 MiB and doubles,
// clamped to the declared size; without one it doubles from 512 B.
// Either way the total stays within a small multiple of the body (the
// old append growth, ~1.25× per step, allocated about 5× it) and the
// buffer it returns holds at most twice the bytes received.
func TestReadBodyGrowth(t *testing.T) {
	srv := mustServer(t, Config{TraceDepth: -1})
	body := bytes.Repeat([]byte("0123456789,"), (10<<20)/11)
	for _, tc := range []struct {
		name     string
		declared bool
		factor   uint64
	}{
		{"declared", true, 3},
		{"undeclared", false, 4},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		if !tc.declared {
			req.ContentLength = -1
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		raw, err := srv.readBody(req)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(raw, body) {
			t.Fatalf("%s: read %d of %d bytes, err %v", tc.name, len(raw), len(body), err)
		}
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, tc.factor*uint64(len(body)); alloc > bound {
			t.Fatalf("%s: allocated %d bytes for a %d-byte body (bound %d)", tc.name, alloc, len(body), bound)
		}
		if cap(raw) > 2*len(raw) {
			t.Fatalf("%s: holds %d bytes for a %d-byte body", tc.name, cap(raw), len(raw))
		}
	}
}
