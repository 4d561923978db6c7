package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bfast/internal/server"
)

// liveServer is a server.Server serving on a loopback listener.
type liveServer struct {
	srv  *server.Server
	url  string
	done chan error
}

func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- srv.Serve(ln) }()
	return ls, nil
}

// stop shuts the server down and waits for Serve to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// client is a keep-alive HTTP client with at most conns connections.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one completed call as the client saw it.
type reply struct {
	code  int
	reqID string // the server's X-Request-ID, the key into Server.Traces
	start int64  // Unix ns, comparable with obs.SpanNode.StartNs
	dur   time.Duration
}

// call sends one request and reads the whole reply body into buf. The
// timed interval runs from just before the request is sent until the
// last byte of the reply is read.
func (c *client) call(method, path string, body []byte, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	dur := time.Since(t0)
	if err != nil {
		return reply{}, err
	}
	return reply{code: resp.StatusCode, reqID: resp.Header.Get(server.HeaderRequestID), start: t0.UnixNano(), dur: dur}, nil
}

// meter accumulates wall time and process-wide allocation and GC
// deltas over one or more timed segments, and samples resident memory
// while a segment runs.
type meter struct {
	wall       time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPauseNs  uint64
	ticks      uint64 // machine CPU ticks, and those stolen
	steal      uint64

	t0     time.Time
	ticks0 uint64
	steal0 uint64
	ms0    runtime.MemStats
	active atomic.Bool
	stopc  chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	peaks []float64 // peak RSS of each rssWindow of timed samples
	cur   float64
	n     int
}

// Resident memory is sampled every rssEvery while a segment runs, and
// the peak is kept per rssWindow samples (one second of timed phase).
// rss_peak_mb is the median of those peaks: the high-water mark a
// request cycle reaches, without one badly timed GC deciding the run.
const (
	rssEvery  = 5 * time.Millisecond
	rssWindow = 200
)

func newMeter() *meter {
	m := &meter{stopc: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-t.C:
				if m.active.Load() {
					m.sampleRSS()
				}
			}
		}
	}()
	return m
}

func (m *meter) sampleRSS() {
	r := float64(rssBytes())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur = max(m.cur, r)
	if m.n++; m.n == rssWindow {
		m.peaks = append(m.peaks, m.cur)
		m.cur, m.n = 0, 0
	}
}

// rssPeakMB is the median window peak; a trailing partial window counts
// when it holds at least half a window or is the only one.
func (m *meter) rssPeakMB() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	peaks := m.peaks
	if m.n >= rssWindow/2 || len(peaks) == 0 {
		peaks = append(peaks[:len(peaks):len(peaks)], m.cur)
	}
	return median(peaks) / (1 << 20)
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.ms0)
	m.active.Store(true)
	m.ticks0, m.steal0 = cpuTicks()
	m.t0 = time.Now()
}

func (m *meter) end() {
	m.wall += time.Since(m.t0)
	ticks, steal := cpuTicks()
	m.ticks += ticks - m.ticks0
	m.steal += steal - m.steal0
	m.active.Store(false)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocBytes += ms.TotalAlloc - m.ms0.TotalAlloc
	m.allocs += ms.Mallocs - m.ms0.Mallocs
	m.gcCycles += ms.NumGC - m.ms0.NumGC
	m.gcPauseNs += ms.PauseTotalNs - m.ms0.PauseTotalNs
}

// stealPct is the share of the machine's CPU time other tenants took
// during the timed segments.
func (m *meter) stealPct() float64 { return 100 * div(float64(m.steal), float64(m.ticks)) }

// stop ends the resident-memory sampler and waits for it to exit.
func (m *meter) stop() {
	close(m.stopc)
	m.wg.Wait()
}

// median is the middle value of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// Latencies are kept in fixed-size log-bucketed histograms: the client
// shares the server's heap, and a client record that grew through the
// run would slow the server's GC cadence as it went, so throughput would
// drift upward within a run.
const (
	histMin     = 1e3   // ns; bucket 0 starts at 1 µs
	histRatio   = 1.005 // bucket width: quantiles resolve to 0.5%
	histBuckets = 4000  // up to ~460 s
)

var histLogRatio = math.Log(histRatio)

// hist counts request latencies and the results they returned.
type hist struct {
	counts  [histBuckets]uint32
	n       int
	results int
}

func (h *hist) add(d time.Duration, results int) {
	b := 0
	if float64(d) > histMin {
		b = min(int(math.Log(float64(d)/histMin)/histLogRatio), histBuckets-1)
	}
	h.counts[b]++
	h.n++
	h.results += results
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.results += o.results
}

// quantile returns the q-quantile in milliseconds, interpolating
// geometrically inside the bucket that holds the rank.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			frac := (rank - seen + 0.5) / float64(c)
			return histMin * math.Exp((float64(b)+frac)*histLogRatio) / 1e6
		}
		seen += float64(c)
	}
	return histMin * math.Exp(histBuckets*histLogRatio) / 1e6
}

func (h *hist) p50p90() (float64, float64) { return h.quantile(0.5), h.quantile(0.9) }

// failures counts the failed or wrong requests reported so far.
var failures atomic.Int64

// failure reports a failed or wrong request on standard error; past the
// first few it stays quiet, since every failure is counted anyway.
func failure(format string, args ...any) {
	if failures.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// expectOK turns a non-200 reply into an error naming the request.
func expectOK(what string, r reply, body []byte) error {
	if r.code != http.StatusOK {
		if len(body) > 200 {
			body = body[:200]
		}
		return fmt.Errorf("%s: status %d: %s", what, r.code, body)
	}
	return nil
}
