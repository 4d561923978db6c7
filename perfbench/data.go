package main

import (
	"encoding/json"
	"fmt"
	"math"

	"bfast/internal/core"
	"bfast/internal/server"
	"bfast/internal/workload"
)

// Workload geometry. large_batch is the paper's Table I scene; the
// small mix and the NRT scene reuse the geometry of the coalescing
// experiment in internal/benchutil (N 228, history 114).
const (
	largePixels  = 4096
	largeDates   = 412
	largeHistory = 206
	largeBodies  = 2

	smallScene   = 512
	smallDates   = 228
	smallHistory = 114
	smallBodies  = 256

	nrtPixels   = 4096
	nrtDates    = 228
	nrtHistory  = 114
	nrtObserves = nrtDates - nrtHistory
)

// smallSizes is the coalescing experiment's request-size rotation:
// mostly single-pixel probes with an occasional 4-pixel request, all of
// which fit one 8-lane tile.
var smallSizes = [...]int{1, 1, 4, 1}

// mixSeed derives a workload.Spec seed from the run seed and a salt
// naming the scene, so every scene of every workload differs and one
// run seed fixes them all. It is never 0 for seed >= 0 (0 would select
// the generator's default seed).
func mixSeed(seed int64, salt int64) int64 { return seed*1_000_003 + salt + 1 }

// scene generates an M×N cloud-masked scene with 50% missing values and
// 30% injected breaks, quantized to 4 decimals: scaled reflectance as
// sensors ship it, so number formatting does not dominate the run.
func scene(m, n, history int, seed int64) ([]float64, error) {
	ds, err := workload.Generate(workload.Spec{
		M: m, N: n, History: history,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	for i, v := range ds.Y {
		if !math.IsNaN(v) {
			ds.Y[i] = math.Round(v*1e4) / 1e4
		}
	}
	return ds.Y, nil
}

// batchSet is a batch workload's pre-marshalled /v1/batch bodies with
// the packed pixels and scalar-oracle results of each.
type batchSet struct {
	n, history int
	bodies     [][]byte
	rows       [][]float64 // body i's pixels, row-major m×n
	expect     [][]core.Result
}

func (b *batchSet) pixels(i int) int { return len(b.rows[i]) / b.n }

// add marshals one request over rows (m×n) and records its oracle.
func (b *batchSet) add(rows []float64) error {
	m := len(rows) / b.n
	px := make([]server.Series, m)
	for j := range px {
		px[j] = server.Series(rows[j*b.n : (j+1)*b.n])
	}
	raw, err := json.Marshal(server.DetectRequest{Pixels: px, History: b.history})
	if err != nil {
		return err
	}
	want, err := oracle(rows, b.n, core.DefaultOptions(b.history))
	if err != nil {
		return err
	}
	b.bodies = append(b.bodies, raw)
	b.rows = append(b.rows, rows)
	b.expect = append(b.expect, want)
	return nil
}

// genLarge builds the large_batch bodies: each a fresh 4096×412 scene.
func genLarge(seed int64) (*batchSet, error) {
	b := &batchSet{n: largeDates, history: largeHistory}
	for k := 0; k < largeBodies; k++ {
		y, err := scene(largePixels, largeDates, largeHistory, mixSeed(seed, 100+int64(k)))
		if err != nil {
			return nil, err
		}
		if err := b.add(y); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// genSmallMix builds the small_mix bodies: consecutive pixels of one
// 512-pixel scene, cut into requests by the smallSizes rotation.
func genSmallMix(seed int64) (*batchSet, error) {
	y, err := scene(smallScene, smallDates, smallHistory, mixSeed(seed, 200))
	if err != nil {
		return nil, err
	}
	b := &batchSet{n: smallDates, history: smallHistory}
	next := 0
	for i := 0; i < smallBodies; i++ {
		m := smallSizes[i%len(smallSizes)]
		rows := make([]float64, 0, m*smallDates)
		for j := 0; j < m; j++ {
			px := next % smallScene
			rows = append(rows, y[px*smallDates:(px+1)*smallDates]...)
			next++
		}
		if err := b.add(rows); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// oracle runs the scalar reference core.Detect over every row.
func oracle(rows []float64, n int, opt core.Options) ([]core.Result, error) {
	x, err := core.DesignFor(opt, n)
	if err != nil {
		return nil, err
	}
	out := make([]core.Result, len(rows)/n)
	for i := range out {
		if out[i], err = core.Detect(rows[i*n:(i+1)*n], x, opt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkBatch compares a /v1/batch reply with the oracle: status, break
// index and valid counts must match, and magnitude and sigma must be
// present exactly for ok pixels and bit-identical after the JSON round
// trip.
func checkBatch(reply []byte, want []core.Result) error {
	var got []server.DetectResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Status != w.Status.String() || g.BreakIndex != w.BreakIndex ||
			g.ValidHistory != w.ValidHistory || g.Valid != w.Valid {
			return fmt.Errorf("pixel %d: got %+v, want %+v", i, g, w)
		}
		ok := w.Status == core.StatusOK
		if (g.Magnitude != nil) != ok || (g.Sigma != nil) != ok {
			return fmt.Errorf("pixel %d: magnitude/sigma presence differs for status %s", i, g.Status)
		}
		if ok && (math.Float64bits(*g.Magnitude) != math.Float64bits(w.MosumMean) ||
			math.Float64bits(*g.Sigma) != math.Float64bits(w.Sigma)) {
			return fmt.Errorf("pixel %d: magnitude %v sigma %v, want %v %v",
				i, *g.Magnitude, *g.Sigma, w.MosumMean, w.Sigma)
		}
	}
	return nil
}

// nrtScene is one nrt_stream session's input: a fresh scene, its fit
// body and one marshalled value row per monitoring date.
type nrtScene struct {
	m, n, history int
	y             []float64 // m×n row-major
	fitBody       []byte
	dateRows      [][]byte // marshalled server.Series, date-major
}

// genScene builds session k's scene. Every session gets its own scene
// so the NRT fit cache never turns a fit into a cache hit.
func genScene(seed int64, k, m int) (*nrtScene, error) {
	y, err := scene(m, nrtDates, nrtHistory, mixSeed(seed, 1000+int64(k)))
	if err != nil {
		return nil, err
	}
	sc := &nrtScene{m: m, n: nrtDates, history: nrtHistory, y: y}
	if sc.fitBody, err = fitBody(y, m); err != nil {
		return nil, err
	}
	row := make(server.Series, m)
	for d := nrtHistory; d < nrtDates; d++ {
		for i := range row {
			row[i] = y[i*nrtDates+d]
		}
		raw, err := row.MarshalJSON()
		if err != nil {
			return nil, err
		}
		sc.dateRows = append(sc.dateRows, raw)
	}
	return sc, nil
}

// fitBody marshals the /v1/fit request over the history of an m-pixel
// nrt_stream scene y.
func fitBody(y []float64, m int) ([]byte, error) {
	hist := make([]server.Series, m)
	for i := range hist {
		hist[i] = server.Series(y[i*nrtDates : i*nrtDates+nrtHistory])
	}
	return json.Marshal(server.FitHTTPRequest{Pixels: hist, Capacity: nrtDates, History: nrtHistory})
}

// cacheFillBodies builds count /v1/fit bodies whose pixel histories are
// new to the fit cache: one generated scene, shifted by (j+1)/10⁴ in
// fill j, so no two fills and no session scene share a history.
func cacheFillBodies(seed int64, m, count int) ([][]byte, error) {
	y, err := scene(m, nrtDates, nrtHistory, mixSeed(seed, 900))
	if err != nil {
		return nil, err
	}
	shifted := make([]float64, len(y))
	bodies := make([][]byte, count)
	for j := range bodies {
		for i, v := range y {
			shifted[i] = math.Round((v+float64(j+1)*1e-4)*1e4) / 1e4
		}
		if bodies[j], err = fitBody(shifted, m); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// observeBodies assembles the session's one-date /v1/observe bodies
// from the pre-marshalled rows once the fit has named the session.
func (sc *nrtScene) observeBodies(session string) ([][]byte, error) {
	id, err := json.Marshal(session)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(sc.dateRows))
	for d, row := range sc.dateRows {
		b := make([]byte, 0, len(row)+len(id)+24)
		b = append(b, `{"session":`...)
		b = append(b, id...)
		b = append(b, `,"dates":[`...)
		b = append(b, row...)
		out[d] = append(b, "]}"...)
	}
	return out, nil
}

// checkVerdicts compares a session's final /v1/observe reply with one
// offline core.Detect over each pixel's full series. The streaming view
// reports an offline no-monitoring-data pixel as ok with
// validMonitoring 0 and no break.
func checkVerdicts(reply []byte, sc *nrtScene) error {
	var got server.ObserveResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	want, err := oracle(sc.y, sc.n, core.DefaultOptions(sc.history))
	if err != nil {
		return err
	}
	if len(got.Verdicts) != len(want) {
		return fmt.Errorf("%d verdicts, want %d", len(got.Verdicts), len(want))
	}
	for i, v := range got.Verdicts {
		w := want[i]
		switch {
		case w.Status == core.StatusNoMonitoringData:
			if v.Status != "ok" || v.ValidMonitoring != 0 || v.Break || v.BreakIndex != -1 {
				return fmt.Errorf("pixel %d: offline no-monitoring-data, got %+v", i, v)
			}
		case v.Status != w.Status.String():
			return fmt.Errorf("pixel %d: status %s, want %s", i, v.Status, w.Status)
		case w.Status != core.StatusOK:
		case v.BreakIndex != w.BreakIndex || v.Break != (w.BreakIndex >= 0) ||
			v.ValidMonitoring != w.Valid-w.ValidHistory:
			return fmt.Errorf("pixel %d: got %+v, want %+v", i, v, w)
		case v.Magnitude == nil || math.Float64bits(*v.Magnitude) != math.Float64bits(w.MosumMean):
			return fmt.Errorf("pixel %d: magnitude %v, want %v", i, v.Magnitude, w.MosumMean)
		}
	}
	return nil
}
