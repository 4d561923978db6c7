package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bfast/internal/obs"
)

// TestDetectBatchSpanTree: under a root span, DetectBatch must attach a
// core.detect_batch span whose children cover the mask sweep, the tile
// plan and the tile sweep — the tree the serving layer exposes at
// /debug/bfast/traces. kernel.tiles carries the per-phase CPU
// nanoseconds, which must be exactly what the call added to the
// kernel.*.ns counters: one measurement, two views.
func TestDetectBatchSpanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := randomBatch(rng, 40, 200, 0.4)
	opt := defaultTestOpts(100)

	phases := map[string]*obs.Counter{
		"cross_product_ns": statCrossNs,
		"invert_ns":        statInvertNs,
		"residual_ns":      statResidualNs,
		"mosum_ns":         statMosumNs,
	}
	before := map[string]int64{}
	for attr, c := range phases {
		before[attr] = c.Value()
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := DetectBatch(ctx, b, opt, BatchConfig{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	tree := root.Node()
	db := tree.Find("core.detect_batch")
	if db == nil {
		t.Fatal("no core.detect_batch span")
	}
	if db.Attrs["pixels"] != 40 || db.Attrs["dates"] != 200 {
		t.Fatalf("detect_batch attrs %v", db.Attrs)
	}
	var names []string
	for _, c := range db.Children {
		names = append(names, c.Name)
	}
	if want := []string{"kernel.mask", "kernel.plan", "kernel.tiles"}; !slices.Equal(names, want) {
		t.Fatalf("core.detect_batch children %v, want %v", names, want)
	}
	if db.Find("kernel.mask").Find("sched.foreach") == nil {
		t.Fatal("kernel.mask has no sched.foreach child")
	}
	tiles := db.Find("kernel.tiles")
	if tiles.Attrs["tile_width"] != 8 || tiles.Attrs["tiles"] != db.Find("kernel.plan").Attrs["tiles"] {
		t.Fatalf("kernel.tiles attrs %v", tiles.Attrs)
	}
	var sum int64
	for attr, c := range phases {
		ns, ok := tiles.Attrs[attr].(int64)
		if !ok || ns <= 0 {
			t.Fatalf("kernel.tiles %s = %v, want positive int64", attr, tiles.Attrs[attr])
		}
		if d := c.Value() - before[attr]; d != ns {
			t.Fatalf("kernel.tiles %s = %d, counter moved by %d", attr, ns, d)
		}
		sum += ns
	}
	if sum > tiles.DurNs*int64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("phase CPU time %d ns exceeds span wall %d ns × GOMAXPROCS", sum, tiles.DurNs)
	}
}

// TestDetectBatchNoSpanNoOverheadPath: without a root span the detection
// must not materialize any spans (nil-span fast path end to end).
func TestDetectBatchNoSpanNoOverheadPath(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	b := randomBatch(rng, 8, 120, 0.3)
	ctx := context.Background()
	if sp := obs.SpanFromContext(ctx); sp != nil {
		t.Fatal("background context must carry no span")
	}
	if _, err := DetectBatch(ctx, b, defaultTestOpts(60), BatchConfig{}); err != nil {
		t.Fatal(err)
	}
}
