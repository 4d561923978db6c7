package core

import (
	"context"
	"time"

	"bfast/internal/linalg"
	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/series"
	"bfast/internal/tile"
)

// This file implements DetectBatch's pixel-tiled execution: pixels are
// binned by valid-count and gathered T at a time into time-major tiles
// (internal/tile), the fit kernels run register-blocked over whole
// tiles, and the K×K normal systems of a tile are inverted together by
// the lane-interleaved batched Gauss-Jordan (linalg.GJBatch) — the CPU
// analogues of the paper's Fig. 4 register tiling and Fig. 5
// shared-memory inversion. One tile is one steal unit on the shared
// scheduler. Results are bit-identical to the scalar Detect.

// tileScratch is the per-worker working set of the tiled kernels: one
// gathered tile plus the lane-interleaved fit and monitoring buffers.
type tileScratch struct {
	data *tile.Data
	sc   *tile.Schedule // per-tile date segments, rebuilt per gather
	nrm  []float64      // K×K×T lane-interleaved normal matrices
	rhs  []float64      // K×T right-hand sides
	inv  []float64      // K×K×T inverses
	beta []float64      // K×T coefficients
	sing []bool         // per-lane singularity flags
	fit  []bool         // per-lane fittable flags
	gj   *linalg.GJBatch
	fm   []float64 // K×K single-lane extraction (non-GJ solvers)
	fr   []float64 // K single-lane right-hand side
	rbuf []float64 // T×N lane-major compacted residuals
	ix   []int32   // T×N original date indices
	nVal []int     // per-lane residual counts
}

func newTileScratch(k, n, t int) *tileScratch {
	return &tileScratch{
		data: tile.NewData(t, n),
		sc:   tile.NewSchedule(n),
		nrm:  make([]float64, k*k*t),
		rhs:  make([]float64, k*t),
		inv:  make([]float64, k*k*t),
		beta: make([]float64, k*t),
		sing: make([]bool, t),
		fit:  make([]bool, t),
		gj:   linalg.NewGJBatch(k, t),
		fm:   make([]float64, k*k),
		fr:   make([]float64, k),
		rbuf: make([]float64, t*n),
		ix:   make([]int32, t*n),
		nVal: make([]int, t),
	}
}

// initTileResults fills the per-pixel counts and fittable flags for the
// gathered tile's lanes, returning whether any lane can be fitted.
func initTileResults(idx []int, mask *series.BatchMask, opt Options, fit []bool, out []Result) bool {
	n := opt.History
	minHist := opt.minHist()
	anyFit := false
	for p, px := range idx {
		words := mask.Row(px)
		out[px] = Result{
			Status:       StatusOK,
			BreakIndex:   -1,
			ValidHistory: series.CountBits(words, n),
			Valid:        series.CountBits(words, mask.N),
		}
		fit[p] = out[px].ValidHistory >= minHist
		if fit[p] {
			anyFit = true
		} else {
			out[px].Status = StatusInsufficientHistory
		}
	}
	return anyFit
}

// solveTile turns the tile's lane-interleaved normal matrices and
// right-hand sides into coefficients. For the paper's Gauss-Jordan
// solver all lanes reduce together in the batched interleaved scratch;
// the pivoting/Cholesky library solvers fall back to per-lane extraction
// through the shared solveNormal, so singularity behaviour matches
// Detect exactly. Lanes that fail are flagged StatusSingular.
func solveTile(s *tileScratch, k int, opt Options, idx []int, out []Result) {
	t := s.data.T
	cnt := s.data.P
	if opt.Solver == SolverGaussJordan {
		s.gj.Invert(s.nrm, s.inv, s.sing, cnt)
		linalg.MatVecBatch(k, t, cnt, s.inv, s.rhs, s.beta)
		for p, px := range idx {
			if !s.fit[p] {
				continue
			}
			if s.sing[p] {
				out[px].Status = StatusSingular
				s.fit[p] = false
			}
		}
		return
	}
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		for e := 0; e < k*k; e++ {
			s.fm[e] = s.nrm[e*t+p]
		}
		for j := 0; j < k; j++ {
			s.fr[j] = s.rhs[j*t+p]
		}
		bta, ok := solveNormal(linalg.NewMatrixFrom(k, k, s.fm), s.fr, opt)
		if !ok {
			out[px].Status = StatusSingular
			s.fit[p] = false
			continue
		}
		for j := 0; j < k; j++ {
			s.beta[j*t+p] = bta[j]
		}
	}
}

// publishBeta copies each fitted lane's coefficients out of the
// interleaved buffer into the pixel's result.
func publishBeta(s *tileScratch, k int, idx []int, out []Result) {
	t := s.data.T
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		bta := make([]float64, k)
		for j := 0; j < k; j++ {
			bta[j] = s.beta[j*t+p]
		}
		out[px].Beta = bta
	}
}

// monitorTile runs the monitoring phase (ker 8–10) over the tile's
// compacted residuals, lane by lane; bit-identical to Detect's
// monitoring phase.
func monitorTile(s *tileScratch, n, nDates int, opt Options, lambda float64, idx []int, out []Result) {
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		res := &out[px]
		nBar := res.ValidHistory
		w := s.nVal[p]
		mo := monitorSeries(s.rbuf[p*nDates:p*nDates+w], nBar, w-nBar, opt, lambda)
		res.Status = mo.status
		res.Sigma = mo.sigma
		res.MosumMean = mo.mean
		if mo.brk >= 0 {
			if orig := int(s.ix[p*nDates+nBar+mo.brk]); orig >= n {
				res.BreakIndex = orig - n
			}
		}
	}
}

// batchTiledFused runs the tiles: per tile, the fit kernels run staged
// across the tile's lanes (cross product → batched inversion → β) and
// the monitoring phase follows fused, all inside one steal unit with
// per-worker scratch. Tiles never touch shared intermediates, so the
// whole pixel's data stays in cache between stages. The kernel.tiles
// span carries the per-phase CPU nanoseconds summed over workers — the
// same measurement the kernel.*.ns counters accumulate.
func batchTiledFused(ctx context.Context, b *Batch, mask *series.BatchMask, x *series.DesignMatrix, opt Options, lambda float64, cfg BatchConfig) ([]Result, error) {
	M, N := b.M, b.N
	n := opt.History
	K := opt.K()
	T := cfg.ResolvedTileWidth()
	out := make([]Result, M)
	_, psp := obs.StartSpan(ctx, "kernel.plan")
	plan := tile.NewPlan(mask, T)
	psp.SetAttr("tiles", plan.Tiles)
	psp.End()
	xh := historySlice(x, n)
	ctx, sp := obs.StartSpan(ctx, "kernel.tiles")
	sp.SetAttr("tiles", plan.Tiles)
	sp.SetAttr("tile_width", T)
	defer sp.End()
	var total phaseTotals
	err := sched.ForEachScratchCtx(ctx, sched.Shared(), plan.Tiles, cfg.Workers, 1,
		func() *tileScratch { return newTileScratch(K, N, T) },
		func(s *tileScratch, lo, hi int) {
			// Phase nanos are accumulated per steal unit and flushed once,
			// so the per-tile instrumentation costs a handful of
			// monotonic-clock reads, not atomic traffic.
			var acc phaseAcc
			for ti := lo; ti < hi; ti++ {
				idx := plan.Indices(ti)
				if !initTileResults(idx, mask, opt, s.fit, out) {
					continue
				}
				t0 := time.Now()
				s.data.Gather(b.Y, mask, idx)
				s.sc.Build(s.data)
				tile.CrossProduct(xh, s.data, s.sc, s.nrm)
				tile.MatVecHistory(xh, s.data, s.sc, s.rhs)
				t1 := time.Now()
				solveTile(s, K, opt, idx, out)
				publishBeta(s, K, idx, out)
				t2 := time.Now()
				tile.Residuals(x, s.data, s.sc, s.beta, s.rbuf, s.ix, s.nVal)
				t3 := time.Now()
				monitorTile(s, n, N, opt, lambda, idx, out)
				acc.cross += int64(t1.Sub(t0))
				acc.invert += int64(t2.Sub(t1))
				acc.residual += int64(t3.Sub(t2))
				acc.mosum += int64(time.Since(t3))
			}
			acc.flush(&total)
		})
	total.annotate(sp)
	if err != nil {
		return nil, err
	}
	return out, nil
}
