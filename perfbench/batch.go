package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bfast/internal/core"
	"bfast/internal/obs"
	"bfast/internal/server"
)

const (
	// setupRepeats is how many times a run builds a server and warms it
	// up; setup_s is the median.
	setupRepeats = 5
	// minSamples is the floor of timed requests in an untraced run, so
	// p90 has at least ten samples beyond it; the timed phase runs past
	// --seconds (up to extendLimit times it) until it is met.
	minSamples  = 100
	extendLimit = 3
	// traceDepth is the traced server's trace ring; traceCap bounds the
	// timed requests of a traced phase so the ring keeps all of them and
	// the coalescer's flush traces besides.
	traceDepth = 1 << 14
	traceCap   = 6000
)

// batchWorkload is a /v1/batch traffic mix.
type batchWorkload struct {
	set    *batchSet
	cfg    server.Config
	warmup int // untimed requests per setup
}

func runLarge(e *env) (*outcome, error) {
	set, err := genLarge(e.seed)
	if err != nil {
		return nil, err
	}
	return runBatch(e, &batchWorkload{set: set, warmup: 1})
}

func runSmallMix(e *env) (*outcome, error) {
	set, err := genSmallMix(e.seed)
	if err != nil {
		return nil, err
	}
	return runBatch(e, &batchWorkload{set: set, warmup: 64})
}

func runSmallMixCoalesced(e *env) (*outcome, error) {
	set, err := genSmallMix(e.seed)
	if err != nil {
		return nil, err
	}
	w := &batchWorkload{set: set, warmup: 64}
	w.cfg.Coalesce.Enabled = true
	return runBatch(e, w)
}

// boot starts a server and sends the warm-up requests; it returns the
// server and a client on it.
func (w *batchWorkload) boot(cfg server.Config, conns int) (*liveServer, *client, error) {
	ls, err := startServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(ls.url, conns)
	var buf bytes.Buffer
	for i := 0; i < w.warmup; i++ {
		body := w.set.bodies[i%len(w.set.bodies)]
		r, err := c.call("POST", "/v1/batch", body, &buf)
		if err == nil {
			err = expectOK("warm-up", r, buf.Bytes())
		}
		if err != nil {
			c.close()
			ls.stop()
			return nil, nil, err
		}
	}
	return ls, c, nil
}

// references sends every body once and keeps each reply that matches
// the oracle; the timed loop then only compares bytes against it.
func (w *batchWorkload) references(c *client) ([][]byte, *outcome, error) {
	refs := make([][]byte, len(w.set.bodies))
	o := &outcome{}
	var buf bytes.Buffer
	for i, body := range w.set.bodies {
		r, err := c.call("POST", "/v1/batch", body, &buf)
		if err != nil {
			return nil, nil, err
		}
		o.attempted++
		if err := expectOK("reference", r, buf.Bytes()); err != nil {
			o.failed++
			failure("body %d: %v", i, err)
			continue
		}
		if err := checkBatch(buf.Bytes(), w.set.expect[i]); err != nil {
			o.failed++
			failure("body %d: %v", i, err)
			continue
		}
		refs[i] = append([]byte(nil), buf.Bytes()...)
	}
	return refs, o, nil
}

// workerOut is what one closed-loop worker records, in memory fixed
// before timing starts (see hist).
type workerOut struct {
	attempted, failed   int
	reqBytes, respBytes int64
	lat                 hist
	// suspect holds 200 replies whose bytes differ from the verified
	// reference, checked against the oracle after the loop.
	suspect []suspectRec
	// replies keeps every successful call of a traced phase, the keys
	// into the server's trace ring.
	replies []reply
}

type suspectRec struct {
	body  int
	r     reply
	reply []byte
}

// loopStats summarizes a timed closed loop.
type loopStats struct {
	out                 outcome
	lat                 hist
	replies             []reply
	reqBytes, respBytes int64
	m                   *meter
	t0, t1              int64 // Unix ns bounds of the timed phase
}

// loop drives the closed loop: conns workers, each sending its next
// request when the previous reply is read, bodies in rotation, until
// dur has passed and floor requests were sent (or extendLimit×dur), or
// capN requests were sent (capN > 0 also keeps every reply for the
// trace lookup).
func (w *batchWorkload) loop(c *client, refs [][]byte, conns int, dur time.Duration, floor, capN int) *loopStats {
	var issued atomic.Int64
	per := make([]workerOut, conns)
	ls := &loopStats{m: newMeter()}
	defer ls.m.stop()
	for i := range per {
		per[i].replies = make([]reply, 0, capN)
	}
	settle()
	ls.m.begin()
	start := time.Now()
	stopAt, hardStop := start.Add(dur), start.Add(extendLimit*dur)
	var wg sync.WaitGroup
	for wk := 0; wk < conns; wk++ {
		wg.Add(1)
		go func(out *workerOut) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				now := time.Now()
				if now.After(hardStop) || (now.After(stopAt) && issued.Load() >= int64(floor)) {
					return
				}
				k := issued.Add(1) - 1
				if capN > 0 && k >= int64(capN) {
					return
				}
				i := int(k % int64(len(w.set.bodies)))
				r, err := c.call("POST", "/v1/batch", w.set.bodies[i], &buf)
				out.attempted++
				if err != nil || r.code != 200 {
					out.failed++
					if err == nil {
						err = expectOK("batch", r, buf.Bytes())
					}
					failure("body %d: %v", i, err)
					continue
				}
				if capN > 0 {
					out.replies = append(out.replies, r)
				}
				if !bytes.Equal(buf.Bytes(), refs[i]) {
					out.suspect = append(out.suspect, suspectRec{i, r, append([]byte(nil), buf.Bytes()...)})
					continue
				}
				out.lat.add(r.dur, w.set.pixels(i))
				out.reqBytes += int64(len(w.set.bodies[i]))
				out.respBytes += int64(buf.Len())
			}
		}(&per[wk])
	}
	wg.Wait()
	ls.m.end()
	ls.t0, ls.t1 = start.UnixNano(), time.Now().UnixNano()
	for i := range per {
		out := &per[i]
		ls.out.attempted += out.attempted
		ls.out.failed += out.failed
		ls.reqBytes += out.reqBytes
		ls.respBytes += out.respBytes
		ls.replies = append(ls.replies, out.replies...)
		ls.lat.merge(&out.lat)
		for _, sr := range out.suspect {
			if err := checkBatch(sr.reply, w.set.expect[sr.body]); err != nil {
				ls.out.failed++
				failure("body %d: %v", sr.body, err)
				continue
			}
			ls.lat.add(sr.r.dur, w.set.pixels(sr.body))
			ls.reqBytes += int64(len(w.set.bodies[sr.body]))
			ls.respBytes += int64(len(sr.reply))
		}
	}
	return ls
}

// runBatch runs a /v1/batch workload, untraced or traced.
func runBatch(e *env, w *batchWorkload) (*outcome, error) {
	if e.trace {
		return runBatchTraced(e, w)
	}
	var setups []float64
	var ls *liveServer
	var c *client
	for k := 0; k < setupRepeats; k++ {
		if ls != nil {
			c.close()
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if ls, c, err = w.boot(w.cfg, e.conns); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ls.stop()
	defer c.close()
	refs, o, err := w.references(c)
	if err != nil {
		return nil, err
	}
	st := w.loop(c, refs, e.conns, e.seconds, minSamples, 0)
	o.merge(&st.out)
	o.metrics = endToEndMetrics(st.m, &st.lat)
	o.metrics["setup_s"] = median(setups)
	e.ctx["latency_samples"] = st.lat.n
	e.ctx["cpu_steal_pct"] = st.m.stealPct()
	return o, nil
}

// settle collects the garbage of input generation and set-up so it is
// not charged to the timed phase.
func settle() { runtime.GC() }

// endToEndMetrics derives the untraced metrics from a timed phase.
func endToEndMetrics(m *meter, lat *hist) map[string]float64 {
	p50, p90 := lat.p50p90()
	r := float64(max(lat.results, 1))
	return map[string]float64{
		"results_per_s":          float64(lat.results) / m.wall.Seconds(),
		"latency_p50_ms":         p50,
		"latency_p90_ms":         p90,
		"alloc_bytes_per_result": float64(m.allocBytes) / r,
		"allocs_per_result":      float64(m.allocs) / r,
		"rss_peak_mb":            m.rssPeakMB(),
		"latency_samples":        float64(lat.n),
		"fit_ms":                 0,
	}
}

// gcPerRequest adds the runtime layer's GC figures of an untraced phase.
func gcPerRequest(into map[string]float64, m *meter, requests int) {
	n := float64(max(requests, 1))
	into["runtime.gc_cycles_per_req"] = float64(m.gcCycles) / n
	into["runtime.gc_pause_ms_per_req"] = float64(m.gcPauseNs) / 1e6 / n
}

// runBatchTraced serves half the run untraced, for the overhead
// baseline and the GC figures, and half traced, and builds the
// per-layer metrics from the traced half's span trees.
func runBatchTraced(e *env, w *batchWorkload) (*outcome, error) {
	half := e.seconds / 2
	// Untraced half.
	ls, c, err := w.boot(w.cfg, e.conns)
	if err != nil {
		return nil, err
	}
	refs, o, err := w.references(c)
	if err != nil {
		c.close()
		ls.stop()
		return nil, err
	}
	base := w.loop(c, refs, e.conns, half, 20, 0)
	c.close()
	if err := ls.stop(); err != nil {
		return nil, err
	}
	o.merge(&base.out)

	// Traced half.
	cfg := w.cfg
	cfg.TraceDepth = traceDepth
	if ls, c, err = w.boot(cfg, e.conns); err != nil {
		return nil, err
	}
	refs2, o2, err := w.references(c)
	if err != nil {
		c.close()
		ls.stop()
		return nil, err
	}
	o.merge(o2)
	before := readCounters()
	st := w.loop(c, refs2, e.conns, half, 20, traceCap)
	delta := counterDelta(before, readCounters())
	traces := ls.srv.Traces()
	c.close()
	if err := ls.stop(); err != nil {
		return nil, err
	}
	o.merge(&st.out)

	tp := &tracedPhase{delta: delta, reqBytes: st.reqBytes, respBytes: st.respBytes, results: int64(st.lat.results)}
	byID := indexTraces(traces)
	for _, r := range st.replies {
		tr, ok := byID[r.reqID]
		if !ok || tr.Spans == nil {
			return nil, fmt.Errorf("no trace for timed request %s", r.reqID)
		}
		tp.reqs = append(tp.reqs, clientTree("client.batch", r, tr.Spans))
	}
	tp.flushes = flushTrees(traces, st.t0, st.t1)
	o.metrics = layerMetrics(tp)
	writeLedger(e.out, "batch", tp.reqs)
	writeLedger(e.out, "coalesce.flush", tp.flushes)

	p50u, _ := base.lat.p50p90()
	p50t, _ := st.lat.p50p90()
	o.metrics["obs.trace_overhead_pct"] = 100 * (p50t/p50u - 1)
	gcPerRequest(o.metrics, base.m, base.lat.n)
	d, err := replayDetect(w.set)
	if err != nil {
		return nil, err
	}
	o.metrics["core.direct_detect_ms"] = d
	o.metrics["state.encode_ms"] = 0
	o.metrics["state.save_ms"] = 0
	o.metrics["state.snapshot_bytes"] = 0
	e.ctx["traced_requests"] = len(tp.reqs)
	e.ctx["untraced_requests"] = base.lat.n
	return o, nil
}

// replayDetect times core.DetectBatch directly on the workload's own
// packed bodies, outside the server: the median over a rotation of
// bodies, repeated until replayBudget has passed.
func replayDetect(set *batchSet) (float64, error) {
	const replayBudget = time.Second
	var times []float64
	start := time.Now()
	for k := 0; len(times) < 3 || time.Since(start) < replayBudget; k++ {
		i := k % len(set.bodies)
		b, err := core.NewBatch(set.pixels(i), set.n, set.rows[i])
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := core.DetectBatch(context.Background(), b, core.DefaultOptions(set.history), core.BatchConfig{}); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0))/1e6)
	}
	return median(times), nil
}

// clientTree wraps the server's span tree in the benchmark's own span
// around the call, so the time outside the server's root span shows.
func clientTree(name string, r reply, root *obs.SpanNode) *obs.SpanNode {
	return &obs.SpanNode{Name: name, StartNs: r.start, DurNs: int64(r.dur), Children: []obs.SpanNode{*root}}
}

func indexTraces(traces []obs.Trace) map[string]obs.Trace {
	m := make(map[string]obs.Trace, len(traces))
	for _, t := range traces {
		m[t.RequestID] = t
	}
	return m
}

// flushTrees returns the coalescer's flush traces that started inside
// the timed phase [t0, t1].
func flushTrees(traces []obs.Trace, t0, t1 int64) treeSet {
	var out treeSet
	for i := range traces {
		t := &traces[i]
		if t.Endpoint == "coalesce.flush" && t.Spans != nil && t.Start.UnixNano() >= t0 && t.Start.UnixNano() <= t1 {
			out = append(out, t.Spans)
		}
	}
	return out
}
