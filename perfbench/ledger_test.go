package main

import (
	"math"
	"testing"

	"bfast/internal/obs"
)

func span(name string, start, dur int64, children ...obs.SpanNode) obs.SpanNode {
	return obs.SpanNode{Name: name, StartNs: start, DurNs: dur, Children: children}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	cases := []struct {
		name     string
		root     obs.SpanNode
		self     int64
		coverage float64
	}{
		{
			name: "nested children count at their own level only",
			root: span("root", 0, 100,
				span("a", 10, 30, span("a1", 15, 5)),
				span("b", 50, 40)),
			self: 30, coverage: 0.7,
		},
		{
			name: "overlapping children count once",
			root: span("root", 0, 100, span("a", 10, 50), span("b", 40, 40)),
			self: 30, coverage: 0.7,
		},
		{
			name: "no children",
			root: span("root", 0, 100),
			self: 100, coverage: 0,
		},
		{
			name: "children outside the parent are clipped",
			root: span("root", 0, 100,
				span("late", 90, 40), span("after", 200, 10), span("before", -50, 60), span("empty", 30, 0)),
			self: 80, coverage: 0.2,
		},
		{
			name: "a child containing another",
			root: span("root", 0, 100, span("outer", 0, 80), span("inner", 20, 10)),
			self: 20, coverage: 0.8,
		},
	}
	for _, tc := range cases {
		if got := selfNs(&tc.root); got != tc.self {
			t.Errorf("%s: self %d, want %d", tc.name, got, tc.self)
		}
		if got := coverage(&tc.root); math.Abs(got-tc.coverage) > 1e-12 {
			t.Errorf("%s: coverage %v, want %v", tc.name, got, tc.coverage)
		}
	}
	if got := coverage(&obs.SpanNode{Name: "zero"}); got != 1 {
		t.Errorf("zero-length span coverage %v, want 1", got)
	}
}

// Without overlap, the self times of a tree sum to its root's duration —
// the ledger's accounting identity.
func TestSelfTimesSumToRoot(t *testing.T) {
	root := span("client.batch", 0, 1000,
		span("server.batch", 50, 900,
			span("decode", 60, 300),
			span("detect", 400, 400,
				span("core.detect_batch", 410, 380,
					span("kernel.invert", 500, 100, span("sched.foreach", 510, 80)))),
			span("encode", 820, 100)))
	self := map[string]int64{}
	addSelf(&root, self)
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	if sum != root.DurNs {
		t.Fatalf("self times sum to %d, root is %d: %v", sum, root.DurNs, self)
	}
	want := map[string]int64{
		"client.batch": 100, "server.batch": 100, "decode": 300, "detect": 20,
		"core.detect_batch": 280, "kernel.invert": 20, "kernel.invert/sched.foreach": 80, "encode": 100,
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
}

func TestTreeSetTotals(t *testing.T) {
	a := span("root", 0, 100, span("decode", 0, 10), span("x", 10, 50, span("x", 20, 5)))
	b := span("root", 0, 100, span("decode", 0, 30))
	ts := treeSet{&a, &b}
	if got := ts.meanMs("decode"); math.Abs(got-20e-6) > 1e-15 {
		t.Errorf("mean decode %v ms, want 2e-5", got)
	}
	// A span nested under its own name is counted once, at the outer one.
	if got := ts.sumNs("x"); got != 50 {
		t.Errorf("sum x %d, want 50", got)
	}
	if got := ts.meanMs("absent"); got != 0 {
		t.Errorf("absent span %v, want 0", got)
	}
	if got := (treeSet{}).meanMs("decode"); got != 0 {
		t.Errorf("empty set %v, want 0", got)
	}
}

func TestLayerMetricsOnHandBuiltTrees(t *testing.T) {
	req := span("client.batch", 0, 1000,
		span("server.batch", 100, 800,
			span("decode", 100, 200),
			span("pack", 300, 100),
			span("detect", 400, 300, span("core.detect_batch", 400, 300, span("kernel.mosum", 500, 100))),
			span("encode", 700, 100)))
	tp := &tracedPhase{
		reqs:     treeSet{&req},
		delta:    map[string]float64{"kernel.pixels": 10, "kernel.mosum.ns": 500, "tile.tiles": 2},
		reqBytes: 2000, respBytes: 400, results: 10,
	}
	m := layerMetrics(tp)
	want := map[string]float64{
		"server.read_decode_ms":        200e-6,
		"server.decode_mb_per_s":       2000 / 200e-9 / 1e6,
		"server.pack_ms":               100e-6,
		"server.encode_ms":             100e-6,
		"server.self_ms":               100e-6,
		"server.span_coverage_pct":     87.5,
		"client.outside_server_ms":     200e-6,
		"server.req_bytes_per_result":  200,
		"server.resp_bytes_per_result": 40,
		"core.detect_ms":               300e-6,
		"core.mosum_ms":                100e-6,
		"core.unspanned_ms":            200e-6,
		"core.cpu_ns_per_px.mosum":     50,
		"core.lane_fill_pct":           62.5,
		"coalesce.wait_ms":             0,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok && !replayed[d.name] {
			t.Errorf("per-layer metric %s not derived", d.name)
		}
	}
}

// replayed are the per-layer metrics the runners add beside layerMetrics.
var replayed = map[string]bool{
	"core.direct_detect_ms": true, "state.encode_ms": true, "state.save_ms": true, "state.snapshot_bytes": true,
	"runtime.gc_cycles_per_req": true, "runtime.gc_pause_ms_per_req": true,
	"obs.trace_overhead_pct": true,
}
