package baseline

import (
	"context"

	"testing"

	"bfast/internal/core"
	"bfast/internal/workload"
)

// genCloudBatch generates a spatially-correlated cloud-masked scene —
// the NaN-skewed regime the work-stealing scheduler targets.
func genCloudBatch(t *testing.T, m, n, hist int, nanFrac float64, seed int64) *core.Batch {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "clouds", M: m, N: n, History: hist, NaNFrac: nanFrac,
		Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBatch(m, n, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCLikeBitIdenticalOnCloudScene pins the bitset/work-stealing CLike
// to core.Detect bit for bit on a skewed cloud-masked scene.
func TestCLikeBitIdenticalOnCloudScene(t *testing.T) {
	ds := genCloudBatch(t, 96, 256, 128, 0.5, 41)
	opt := core.DefaultOptions(128)
	got, err := CLike(context.Background(), ds, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, referenceResults(t, ds, opt), got, "clike-clouds")
}

func TestCLikeEmptyBatch(t *testing.T) {
	b, err := core.NewBatch(0, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(32)
	res, err := CLike(context.Background(), b, opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatal("empty batch must give empty results")
	}
}

func TestCLikeWorkersExceedPixels(t *testing.T) {
	b := genBatch(t, 2, 128, 64, 0.5, 0.5, 42)
	opt := core.DefaultOptions(64)
	want := referenceResults(t, b, opt)
	for _, w := range []int{1, 3, 100} {
		got, err := CLike(context.Background(), b, opt, w)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, want, got, "clike-many-workers")
	}
}
