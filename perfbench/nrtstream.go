package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/obs"
	"bfast/internal/server"
	"bfast/internal/state"
)

const warmObserves = 8

// cacheFills is how many nrt_stream fits fill the server's fit cache
// (nrt.DefaultCacheSize pixel entries), plus one so eviction runs.
const cacheFills = nrt.DefaultCacheSize/nrtPixels + 1

// nrtStream drives nrt_stream sessions against one server: per fresh
// scene a /v1/fit, one /v1/observe per monitoring date and a DELETE.
// Scene generation, body assembly and verification happen between the
// timed segments, so the meter sees only requests.
type nrtStream struct {
	seed   int64
	pixels int
	c      *client
	m      *meter

	out       outcome
	lat       hist // timed observes
	fitMs     []float64
	hits      int // pixels served from the fit cache, summed over fits
	sessions  int
	reqBytes  int64 // observe bodies sent
	respBytes int64 // observe replies received
	// capReqs, when positive, stops starting sessions that would take
	// the timed fit and observe requests past it (the trace ring bound).
	capReqs int
	// fitReplies and observeReplies are the timed replies, the keys into
	// the server's trace ring.
	fitReplies, observeReplies []reply
}

func newStream(seed int64, pixels int, c *client) *nrtStream {
	return &nrtStream{seed: seed, pixels: pixels, c: c, m: newMeter()}
}

// session runs one full session over sc and returns the final observe
// reply (nil when no observe succeeded).
func (s *nrtStream) session(sc *nrtScene) ([]byte, error) {
	var buf bytes.Buffer
	s.m.begin()
	r, err := s.c.call("POST", "/v1/fit", sc.fitBody, &buf)
	s.m.end()
	if err != nil {
		return nil, err
	}
	s.out.attempted++
	if err := expectOK("fit", r, buf.Bytes()); err != nil {
		s.out.failed++
		failure("%v", err)
		return nil, nil
	}
	var sum nrt.FitSummary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		return nil, fmt.Errorf("decoding fit reply: %w", err)
	}
	s.fitMs = append(s.fitMs, float64(r.dur)/1e6)
	s.fitReplies = append(s.fitReplies, r)
	s.hits += sum.CacheHits
	bodies, err := sc.observeBodies(sum.ID)
	if err != nil {
		return nil, err
	}

	var last []byte
	s.m.begin()
	for _, body := range bodies {
		r, err := s.c.call("POST", "/v1/observe", body, &buf)
		if err != nil {
			s.m.end()
			return nil, err
		}
		s.out.attempted++
		if r.code != 200 {
			s.out.failed++
			continue
		}
		s.lat.add(r.dur, sc.m)
		s.observeReplies = append(s.observeReplies, r)
		s.reqBytes += int64(len(body))
		s.respBytes += int64(buf.Len())
		last = buf.Bytes()
	}
	s.m.end()
	last = append([]byte(nil), last...)

	s.m.begin()
	r, err = s.c.call("DELETE", "/v1/sessions?session="+url.QueryEscape(sum.ID), nil, &buf)
	s.m.end()
	if err != nil {
		return nil, err
	}
	s.out.attempted++
	if err := expectOK("delete", r, buf.Bytes()); err != nil {
		s.out.failed++
		failure("%v", err)
	}
	s.sessions++
	return last, nil
}

// run serves sessions over scenes k0, k0+1, ... until the meter has
// timed dur and at least floor observes, or extendLimit×dur. Each
// session's final verdicts are checked against the oracle.
func (s *nrtStream) run(k0 int, dur time.Duration, floor int) error {
	// Untimed work between segments is bounded too, should every session
	// fail fast.
	deadline := time.Now().Add(2 * extendLimit * dur)
	for k := k0; s.m.wall < extendLimit*dur && (s.m.wall < dur || s.lat.n < floor) && time.Now().Before(deadline); k++ {
		if s.capReqs > 0 && len(s.fitReplies)+len(s.observeReplies)+1+nrtObserves > s.capReqs {
			break
		}
		sc, err := genScene(s.seed, k, s.pixels)
		if err != nil {
			return err
		}
		settle()
		last, err := s.session(sc)
		if err != nil {
			return err
		}
		if last == nil {
			continue // the failed requests are counted
		}
		if err := checkVerdicts(last, sc); err != nil {
			s.out.failed++
			failure("session %d: %v", k, err)
		}
	}
	return nil
}

// sceneSnapshot serves sc through an in-process nrt.Manager on an
// in-memory store, the server's own default, and reads the snapshot
// persisted after the last observe back through the public codec.
func sceneSnapshot(sc *nrtScene) (*state.SessionSnapshot, error) {
	ctx := context.Background()
	store := state.NewMemStore()
	mg := nrt.NewManager(nrt.Config{Store: store, Metrics: obs.NewRegistry(), CacheSize: -1})
	hist := make([]float64, 0, sc.m*sc.history)
	for i := 0; i < sc.m; i++ {
		hist = append(hist, sc.y[i*sc.n:i*sc.n+sc.history]...)
	}
	sum, err := mg.Fit(ctx, nrt.FitRequest{
		Options: core.DefaultOptions(sc.history), Pixels: sc.m, History: hist, Capacity: sc.n,
	})
	if err != nil {
		return nil, err
	}
	row := make([]float64, sc.m)
	for d := sc.history; d < sc.n; d++ {
		for i := range row {
			row[i] = sc.y[i*sc.n+d]
		}
		if _, err := mg.Observe(ctx, sum.ID, row, 1); err != nil {
			return nil, err
		}
	}
	data, err := store.Load(ctx, sum.ID)
	if err != nil {
		return nil, err
	}
	if err := mg.Close(ctx); err != nil {
		return nil, err
	}
	return state.DecodeSession(data)
}

// bootNRT starts a server and runs one warm-up session over warm, a
// scene no timed session uses.
func bootNRT(e *env, cfg server.Config, warm *nrtScene) (*liveServer, *nrtStream, error) {
	ls, err := startServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	w := newStream(e.seed, nrtPixels, newClient(ls.url, e.conns))
	_, err = w.session(warm)
	w.m.stop()
	if err == nil && w.out.failed > 0 {
		err = fmt.Errorf("warm-up session failed")
	}
	if err != nil {
		w.c.close()
		ls.stop()
		return nil, nil, err
	}
	return ls, newStream(e.seed, nrtPixels, w.c), nil
}

// fillFitCache brings the server's fit cache to the state of a server
// that has run for a while: it fits and deletes one session per body,
// untimed, so the timed sessions meet a full cache that evicts as they
// fit instead of a heap that grows through the run.
func (s *nrtStream) fillFitCache(bodies [][]byte) error {
	var buf bytes.Buffer
	for _, body := range bodies {
		r, err := s.c.call("POST", "/v1/fit", body, &buf)
		if err == nil {
			err = expectOK("cache fill", r, buf.Bytes())
		}
		if err != nil {
			return err
		}
		var sum nrt.FitSummary
		if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
			return fmt.Errorf("decoding fit reply: %w", err)
		}
		if sum.CacheHits > 0 {
			return fmt.Errorf("cache fill: %d pixels already cached", sum.CacheHits)
		}
		r, err = s.c.call("DELETE", "/v1/sessions?session="+url.QueryEscape(sum.ID), nil, &buf)
		if err == nil {
			err = expectOK("cache fill delete", r, buf.Bytes())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *nrtStream) close() {
	s.c.close()
	s.m.stop()
}

func runNRT(e *env) (*outcome, error) {
	// Sessions persist to the server's default in-memory store: a state
	// directory would have to sit in the checkout, on a shared disk whose
	// fsync latency would swamp the snapshot path being measured.
	e.ctx["state_store"] = "memory"
	warm, err := genScene(e.seed, -1, nrtPixels)
	if err != nil {
		return nil, err
	}
	// A few observes exercise the whole session path; the rest would
	// only lengthen set-up.
	warm.dateRows = warm.dateRows[:warmObserves]
	fills, err := cacheFillBodies(e.seed, nrtPixels, cacheFills)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return runNRTTraced(e, warm, fills)
	}
	var setups []float64
	var ls *liveServer
	var s *nrtStream
	for k := 0; k < setupRepeats; k++ {
		if ls != nil {
			s.close()
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if ls, s, err = bootNRT(e, server.Config{}, warm); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ls.stop()
	defer s.close()
	if err := s.fillFitCache(fills); err != nil {
		return nil, err
	}
	if err := s.run(0, e.seconds, minSamples); err != nil {
		return nil, err
	}
	o := &outcome{attempted: s.out.attempted, failed: s.out.failed}
	o.metrics = endToEndMetrics(s.m, &s.lat)
	o.metrics["setup_s"] = median(setups)
	o.metrics["fit_ms"] = median(s.fitMs)
	e.ctx["latency_samples"] = s.lat.n
	e.ctx["cpu_steal_pct"] = s.m.stealPct()
	e.ctx["sessions"] = s.sessions
	s.warnHits()
	return o, nil
}

func (s *nrtStream) warnHits() {
	if s.hits > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d fit-cache hits; fit_ms no longer times real fits\n", s.hits)
	}
}

func runNRTTraced(e *env, warm *nrtScene, fills [][]byte) (*outcome, error) {
	half := e.seconds / 2
	ls, s, err := bootNRT(e, server.Config{}, warm)
	if err != nil {
		return nil, err
	}
	err = s.fillFitCache(fills)
	if err == nil {
		err = s.run(0, half, 20)
	}
	s.close()
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	base := s
	o := &outcome{attempted: s.out.attempted, failed: s.out.failed}

	cfg := server.Config{TraceDepth: traceDepth}
	if ls, s, err = bootNRT(e, cfg, warm); err != nil {
		return nil, err
	}
	s.capReqs = traceCap
	if err := s.fillFitCache(fills); err != nil {
		s.close()
		ls.stop()
		return nil, err
	}
	before := readCounters()
	// Sessions continue the numbering so no scene repeats in the run.
	err = s.run(base.sessions, half, 20)
	delta := counterDelta(before, readCounters())
	traces := ls.srv.Traces()
	s.close()
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	o.attempted += s.out.attempted
	o.failed += s.out.failed

	tp := &tracedPhase{delta: delta, reqBytes: s.reqBytes, respBytes: s.respBytes, results: int64(s.lat.results)}
	byID := indexTraces(traces)
	for _, r := range s.observeReplies {
		tr, ok := byID[r.reqID]
		if !ok || tr.Spans == nil {
			return nil, fmt.Errorf("no trace for timed request %s", r.reqID)
		}
		tp.reqs = append(tp.reqs, clientTree("client.observe", r, tr.Spans))
	}
	for _, r := range s.fitReplies {
		if tr, ok := byID[r.reqID]; ok && tr.Spans != nil {
			tp.fits = append(tp.fits, tr.Spans)
		}
	}
	o.metrics = layerMetrics(tp)
	writeLedger(e.out, "observe", tp.reqs)
	writeLedger(e.out, "fit", tp.fits)

	p50u, _ := base.lat.p50p90()
	p50t, _ := s.lat.p50p90()
	o.metrics["obs.trace_overhead_pct"] = 100 * (p50t/p50u - 1)
	gcPerRequest(o.metrics, base.m, base.lat.n)
	o.metrics["core.direct_detect_ms"] = 0
	// The replay runs on the first traced session's scene.
	sc, err := genScene(e.seed, base.sessions, nrtPixels)
	if err != nil {
		return nil, err
	}
	snap, err := sceneSnapshot(sc)
	if err != nil {
		return nil, err
	}
	replayDir := filepath.Join(e.workDir, "replay")
	enc, save, size, err := replayState(replayDir, snap)
	if err != nil {
		return nil, err
	}
	e.ctx["replay_dir_fs"] = fsType(replayDir)
	o.metrics["state.encode_ms"] = enc
	o.metrics["state.save_ms"] = save
	o.metrics["state.snapshot_bytes"] = float64(size)
	e.ctx["traced_requests"] = len(tp.reqs)
	e.ctx["untraced_requests"] = base.lat.n
	s.warnHits()
	return o, nil
}

// replayState times state.EncodeSession and FileStore.Save directly on
// a session snapshot: medians over replayReps rounds, and the encoded
// size.
func replayState(dir string, snap *state.SessionSnapshot) (encMs, saveMs float64, size int, err error) {
	const replayReps = 15
	fs, err := state.NewFileStore(dir, obs.NewRegistry())
	if err != nil {
		return 0, 0, 0, err
	}
	var enc, save []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		data := state.EncodeSession(snap)
		t1 := time.Now()
		size = len(data)
		if err := fs.Save(context.Background(), snap.ID, data); err != nil {
			return 0, 0, 0, err
		}
		enc = append(enc, float64(t1.Sub(t0))/1e6)
		save = append(save, float64(time.Since(t1))/1e6)
	}
	return median(enc), median(save), size, nil
}
