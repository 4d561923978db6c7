package core

import (
	"sync/atomic"

	"bfast/internal/obs"
)

// Kernel-phase metrics (DESIGN.md §6): cumulative nanoseconds spent in
// each kernel group of DetectBatch, summed across workers (CPU time,
// not wall time), plus the number of pixels processed. Time is
// attributed to the paper's kernel groups — cross product (ker 1–2),
// inversion + β (ker 3–5), residuals (ker 6–7), MOSUM monitoring
// (ker 8–10).
var (
	statKernelPixels = obs.Default().Counter("kernel.pixels")
	statCrossNs      = obs.Default().Counter("kernel.cross_product.ns")
	statInvertNs     = obs.Default().Counter("kernel.invert.ns")
	statResidualNs   = obs.Default().Counter("kernel.residual.ns")
	statMosumNs      = obs.Default().Counter("kernel.mosum.ns")
)

// phaseAcc batches phase nanoseconds in worker-local memory so the hot
// loops pay one atomic add per steal unit and phase, not per pixel.
type phaseAcc struct {
	cross, invert, residual, mosum int64
}

// phaseTotals sums one DetectBatch call's flushed phase nanoseconds
// across its workers, for the call's kernel.tiles span.
type phaseTotals struct {
	cross, invert, residual, mosum atomic.Int64
}

// flush publishes the accumulated nanoseconds to the process counters
// and to the call's totals, then resets.
func (a *phaseAcc) flush(total *phaseTotals) {
	statCrossNs.Add(a.cross)
	statInvertNs.Add(a.invert)
	statResidualNs.Add(a.residual)
	statMosumNs.Add(a.mosum)
	total.cross.Add(a.cross)
	total.invert.Add(a.invert)
	total.residual.Add(a.residual)
	total.mosum.Add(a.mosum)
	*a = phaseAcc{}
}

// annotate attaches the totals to sp as *_ns attributes.
func (t *phaseTotals) annotate(sp *obs.Span) {
	if sp == nil {
		return
	}
	sp.SetAttr("cross_product_ns", t.cross.Load())
	sp.SetAttr("invert_ns", t.invert.Load())
	sp.SetAttr("residual_ns", t.residual.Load())
	sp.SetAttr("mosum_ns", t.mosum.Load())
}
