package main

import (
	"runtime"

	"bfast/internal/obs"
	"bfast/internal/tile"
)

// Process-wide obs.Default() figures read around a traced phase: the
// kernel-phase CPU counters, the tile and scheduler skew histograms,
// the coalescer's flush counters, and the NRT and state counters.
var (
	layerCounters = []string{
		"kernel.pixels",
		"kernel.cross_product.ns", "kernel.invert.ns", "kernel.residual.ns",
		"kernel.mosum.ns", "kernel.fused.ns",
		"tile.tiles",
		"coalesce.pixels", "coalesce.flushes",
		"coalesce.flush.reason.size", "coalesce.flush.reason.deadline", "coalesce.flush.reason.idle",
		"nrt.fit.cache_hits", "nrt.fit.pixels",
	}
	layerHistograms = []string{"tile.pad.waste_pct", "sched.loop.imbalance_pct"}
	kernelPhases    = []string{"cross_product", "invert", "residual", "mosum", "fused"}
	spannedKernels  = []string{"mask", "gather", "cross_product", "invert", "residual", "mosum"}
)

func readCounters() map[string]float64 {
	reg := obs.Default()
	m := map[string]float64{}
	for _, name := range layerCounters {
		m[name] = float64(reg.Counter(name).Value())
	}
	for _, name := range layerHistograms {
		h := reg.Histogram(name, nil)
		m[name+".count"] = float64(h.Count())
		m[name+".sum"] = h.Sum()
	}
	return m
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// div is a/b, or 0 when b is 0 (a layer the workload does not reach).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPhase is what a traced phase yields for the ledger.
type tracedPhase struct {
	// reqs holds one tree per timed repeated request: the benchmark's
	// client span with the server's root span as its only child.
	reqs treeSet
	// fits are the server trees of /v1/fit requests (nrt_stream).
	fits treeSet
	// flushes are the coalescer's flush trees, which carry the kernel
	// spans of coalesced requests.
	flushes             treeSet
	delta               map[string]float64
	reqBytes, respBytes int64
	results             int64
}

// layerMetrics derives the span- and counter-based per-layer metrics.
// Times are means per timed request; a layer the workload does not
// reach reads 0.
func layerMetrics(tp *tracedPhase) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(tp.reqs))
	roots := make(treeSet, len(tp.reqs))
	var rootSelf, cov, outside float64
	for i, t := range tp.reqs {
		root := &t.Children[0]
		roots[i] = root
		rootSelf += float64(selfNs(root))
		cov += coverage(root)
		outside += float64(t.DurNs - root.DurNs)
	}
	results := float64(tp.results)
	m["server.read_decode_ms"] = roots.meanMs("decode")
	m["server.decode_mb_per_s"] = div(float64(tp.reqBytes), float64(roots.sumNs("decode"))/1e9) / 1e6
	m["server.pack_ms"] = roots.meanMs("pack")
	m["server.encode_ms"] = roots.meanMs("encode")
	m["server.self_ms"] = div(rootSelf, n) / 1e6
	m["server.req_bytes_per_result"] = div(float64(tp.reqBytes), results)
	m["server.resp_bytes_per_result"] = div(float64(tp.respBytes), results)
	m["server.span_coverage_pct"] = 100 * div(cov, n)
	m["client.outside_server_ms"] = div(outside, n) / 1e6

	// Kernel spans of coalesced requests sit in the flush trees, so the
	// core layer sums over both and divides by the request count.
	all := append(append(treeSet(nil), roots...), tp.flushes...)
	m["core.detect_ms"] = roots.meanMs("detect")
	for _, k := range spannedKernels {
		m["core."+k+"_ms"] = div(float64(all.sumNs("kernel."+k)), n) / 1e6
	}
	m["core.unspanned_ms"] = div(float64(all.selfByName()["core.detect_batch"]), n) / 1e6
	px := tp.delta["kernel.pixels"]
	var kernelNs float64
	for _, k := range kernelPhases {
		ns := tp.delta["kernel."+k+".ns"]
		kernelNs += ns
		m["core.cpu_ns_per_px."+k] = div(ns, px)
	}
	m["core.parallel_eff"] = div(kernelNs, float64(all.sumNs("core.detect_batch"))*float64(runtime.GOMAXPROCS(0)))
	m["core.pad_waste_pct"] = histMean(tp.delta, "tile.pad.waste_pct")
	m["core.lane_fill_pct"] = 100 * div(px, tp.delta["tile.tiles"]*tile.DefaultWidth)
	m["core.sched_imbalance_pct"] = histMean(tp.delta, "sched.loop.imbalance_pct")

	m["coalesce.wait_ms"] = roots.meanMs("coalesce.wait")
	flushes := tp.delta["coalesce.flushes"]
	m["coalesce.mean_flush_px"] = div(tp.delta["coalesce.pixels"], flushes)
	for _, why := range []string{"size", "deadline", "idle"} {
		m["coalesce.flush_share."+why] = div(tp.delta["coalesce.flush.reason."+why], flushes)
	}

	m["nrt.fit_ms"] = tp.fits.meanMs("nrt.fit")
	m["nrt.advance_ms"] = roots.meanMs("nrt.observe") - roots.meanMs("nrt.snapshot")
	m["nrt.fit_cache_hit_frac"] = div(tp.delta["nrt.fit.cache_hits"], tp.delta["nrt.fit.pixels"])
	m["state.snapshot_ms"] = roots.meanMs("nrt.snapshot")
	return m
}

func histMean(delta map[string]float64, name string) float64 {
	return div(delta[name+".sum"], delta[name+".count"])
}
