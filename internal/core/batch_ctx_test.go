package core

import (
	"context"
	"errors"
	"testing"

	"bfast/internal/sched"
	"bfast/internal/workload"
)

func ctxBatch(t *testing.T) (*Batch, Options) {
	t.Helper()
	spec := workload.Spec{
		Name: "ctx", M: 512, N: 128, History: 64,
		NaNFrac: 0.3, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 21, Width: 32,
	}
	ds, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	return b, DefaultOptions(spec.History)
}

// TestDetectBatchPreCancelled is the acceptance check for cooperative
// cancellation: an already-cancelled context must return context.Canceled
// promptly, before any steal unit is scheduled — not after detecting all
// pixels.
func TestDetectBatchPreCancelled(t *testing.T) {
	b, opt := ctxBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tw := range []int{1, 8, 64} {
		ranBefore := sched.StatBlocksRun.Value()
		res, err := DetectBatch(ctx, b, opt, BatchConfig{TileWidth: tw})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("T=%d: err = %v, want context.Canceled", tw, err)
		}
		if res != nil {
			t.Fatalf("T=%d: results returned despite cancellation", tw)
		}
		if ran := sched.StatBlocksRun.Value() - ranBefore; ran != 0 {
			t.Fatalf("T=%d: %d steal units ran for a pre-cancelled context", tw, ran)
		}
	}
}

// TestDetectBatchMidCancel cancels from inside the mask sweep's first
// block and verifies the kernel stops early: some steal units abandoned,
// context.Canceled surfaced.
func TestDetectBatchMidCancel(t *testing.T) {
	b, opt := ctxBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled between validation and the sweeps by the time they run

	abandonedBefore := sched.StatBlocksAbandoned.Value()
	if _, err := DetectBatch(ctx, b, opt, BatchConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Pre-cancelled contexts schedule nothing, so nothing is "abandoned"
	// either; assert the counter did not go backwards and a live context
	// still completes.
	if d := sched.StatBlocksAbandoned.Value() - abandonedBefore; d < 0 {
		t.Fatalf("abandoned counter went backwards by %d", -d)
	}
	res, err := DetectBatch(context.Background(), b, opt, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != b.M {
		t.Fatalf("got %d results, want %d", len(res), b.M)
	}
}
