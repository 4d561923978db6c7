package core

import (
	"context"
	"fmt"

	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/series"
	"bfast/internal/tile"
)

// BatchConfig configures DetectBatch.
type BatchConfig struct {
	// Workers is the number of goroutines (default GOMAXPROCS).
	Workers int
	// TileWidth is T, the number of pixels gathered into one time-major
	// tile by the register-blocked kernels. 0 means tile.DefaultWidth
	// (8); 1 disables cross-pixel blocking; values are clamped to
	// tile.MaxWidth (64). Results are identical for every T.
	TileWidth int
}

// ResolvedTileWidth returns the effective tile width T after defaulting
// and clamping (the width DetectBatch will actually use).
func (c BatchConfig) ResolvedTileWidth() int {
	switch {
	case c.TileWidth <= 0:
		return tile.DefaultWidth
	case c.TileWidth > tile.MaxWidth:
		return tile.MaxWidth
	}
	return c.TileWidth
}

// Batch is a dense M×N pixel batch: M series of length N, row-major,
// NaN = missing. It is the in-memory layout the kernels stream over
// (one row per pixel, dates contiguous).
type Batch struct {
	M, N int
	Y    []float64
}

// NewBatch validates and wraps a flat pixel matrix.
func NewBatch(m, n int, y []float64) (*Batch, error) {
	if m < 0 || n < 0 || len(y) != m*n {
		return nil, fmt.Errorf("core: batch data length %d != M*N = %d*%d", len(y), m, n)
	}
	return &Batch{M: m, N: n, Y: y}, nil
}

// Row returns pixel i's series (a view, not a copy).
func (b *Batch) Row(i int) []float64 { return b.Y[i*b.N : (i+1)*b.N] }

// MaskCtx computes the batch's validity bitsets (bit t of pixel i set
// iff observation t is valid), in parallel over pixels. Every kernel
// pass iterates these words instead of re-testing elements with
// math.IsNaN — the paper's "discover the NaN structure once" principle
// (§III-C) applied to the host path. The mask sweep is the first
// parallel pass of every batched detection, so a cancelled request must
// be able to stop here too: it returns a nil mask and ctx.Err() when cut
// short.
func (b *Batch) MaskCtx(ctx context.Context, workers int) (*series.BatchMask, error) {
	sctx, sp := obs.StartSpan(ctx, "kernel.mask")
	sp.SetAttr("pixels", b.M)
	defer sp.End()
	bm := &series.BatchMask{M: b.M, N: b.N, WordsPerRow: series.MaskWords(b.N)}
	bm.Words = make([]uint64, b.M*bm.WordsPerRow)
	err := sched.Shared().ForEachCtx(sctx, b.M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			series.FillMask(b.Row(i), bm.Row(i))
		}
	})
	if err != nil {
		return nil, err
	}
	return bm, nil
}

// DetectBatch runs BFAST-Monitor over every pixel of the batch using the
// shared design matrix implied by opt (built internally). Results are
// bit-identical to the scalar Detect on every pixel, for every tile
// width and worker count.
//
// Execution: each pixel's validity bitset is computed once (MaskCtx).
// Pixels are then binned by valid-count and gathered into time-major
// tiles of cfg.TileWidth pixels (tile.NewPlan); one tile is one steal
// unit on the shared work-stealing scheduler, and inside it the fit
// kernels run register-blocked across the tile's lanes (cross product →
// batched inversion → β) with the residual and MOSUM monitoring phase
// following fused, so a tile's data stays in cache between stages.
//
// Cancellation: ctx is checked before every steal unit (one mask block
// or one tile). When ctx is cancelled the remaining units are abandoned,
// in-flight units finish, and DetectBatch returns ctx.Err(); the partial
// results are discarded. An already-cancelled context schedules no units
// at all.
func DetectBatch(ctx context.Context, b *Batch, opt Options, cfg BatchConfig) ([]Result, error) {
	if err := opt.Validate(b.N); err != nil {
		return nil, err
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return nil, err
	}
	x, err := DesignFor(opt, b.N)
	if err != nil {
		return nil, err
	}
	if b.M == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []Result{}, nil
	}
	ctx, sp := obs.StartSpan(ctx, "core.detect_batch")
	sp.SetAttr("pixels", b.M)
	sp.SetAttr("dates", b.N)
	defer sp.End()
	mask, err := b.MaskCtx(ctx, cfg.Workers)
	if err != nil {
		return nil, err
	}
	statKernelPixels.Add(int64(b.M))
	return batchTiledFused(ctx, b, mask, x, opt, lambda, cfg)
}
