package core

import (
	"context"
	"testing"

	"bfast/internal/workload"
)

// BenchmarkCloudTiled runs DetectBatch at its default configuration on
// the Table I geometry: 4096×412, history 206, 50% NaN under
// spatially-correlated cloud masks, where valid-count binning aligns the
// tiles' column masks.
func BenchmarkCloudTiled(b *testing.B) {
	spec := workload.Spec{
		Name: "skew50", M: 4096, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 7, Width: 64,
	}
	ds, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions(spec.History)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectBatch(context.Background(), bb, opt, BatchConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
