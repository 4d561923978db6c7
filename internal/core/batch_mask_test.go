package core

import (
	"context"
	"fmt"

	"math"
	"math/rand"
	"testing"

	"bfast/internal/series"
)

// sameFloat is bit-identity up to NaN: two NaNs match whatever their
// payload, every other value must be equal.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// assertBitIdentical compares two result sets with exact float equality
// — the contract between DetectBatch and the scalar Detect.
func assertBitIdentical(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Status != g.Status || w.BreakIndex != g.BreakIndex ||
			w.ValidHistory != g.ValidHistory || w.Valid != g.Valid {
			t.Fatalf("%s pixel %d: %+v vs %+v", label, i, w, g)
		}
		if !sameFloat(w.Sigma, g.Sigma) {
			t.Fatalf("%s pixel %d: σ̂ %v vs %v", label, i, w.Sigma, g.Sigma)
		}
		if !sameFloat(w.MosumMean, g.MosumMean) {
			t.Fatalf("%s pixel %d: mean %v vs %v", label, i, w.MosumMean, g.MosumMean)
		}
		if len(w.Beta) != len(g.Beta) {
			t.Fatalf("%s pixel %d: β length %d vs %d", label, i, len(w.Beta), len(g.Beta))
		}
		for j := range w.Beta {
			if !sameFloat(w.Beta[j], g.Beta[j]) {
				t.Fatalf("%s pixel %d: β[%d] %v vs %v", label, i, j, w.Beta[j], g.Beta[j])
			}
		}
	}
}

// detectOracle runs the scalar Detect over every pixel of b — the one
// oracle every batched bit-identity test pins DetectBatch to.
func detectOracle(t *testing.T, b *Batch, opt Options) []Result {
	t.Helper()
	x, err := DesignFor(opt, b.N)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, b.M)
	for i := range want {
		if want[i], err = Detect(b.Row(i), x, opt); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestDetectBatchBitIdenticalToSeedReference: at half and heavy
// missingness and under every solver, DetectBatch is bit-identical to
// the seed's reference implementation, the scalar Detect.
func TestDetectBatchBitIdenticalToSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, nanFrac := range []float64{0.5, 0.8} {
		M, N, n := 48, 300, 150
		b := randomBatch(rng, M, N, nanFrac)
		for _, solver := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
			opt := defaultTestOpts(n)
			opt.Solver = solver
			want := detectOracle(t, b, opt)
			got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, fmt.Sprintf("nan=%.1f/%s", nanFrac, solver))
		}
	}
}

// TestDetectBatchMaskEdgePixels covers the bitset edge cases inside the
// batch path: an all-NaN pixel, an all-valid pixel (fast-path words), a
// pixel whose only NaNs sit in the tail word, with N not a multiple
// of 64.
func TestDetectBatchMaskEdgePixels(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const M, N, n = 4, 230, 115 // N % 64 = 38: tail word in play
	y := make([]float64, M*N)
	// Pixel 0: all NaN.
	for t2 := 0; t2 < N; t2++ {
		y[0*N+t2] = math.NaN()
	}
	// Pixel 1: all valid (every mask word fully set except the tail).
	copy(y[1*N:2*N], synthSeries(rng, N, 3, 23, 0.03, 180, -0.6, 0))
	// Pixel 2: valid except the last 10 dates (NaNs only in the tail word).
	copy(y[2*N:3*N], synthSeries(rng, N, 3, 23, 0.03, -1, 0, 0))
	for t2 := N - 10; t2 < N; t2++ {
		y[2*N+t2] = math.NaN()
	}
	// Pixel 3: heavy random missing.
	copy(y[3*N:4*N], synthSeries(rng, N, 3, 23, 0.03, -1, 0, 0.85))
	b, err := NewBatch(M, N, y)
	if err != nil {
		t.Fatal(err)
	}
	opt := defaultTestOpts(n)
	want := detectOracle(t, b, opt)
	if want[0].Status != StatusInsufficientHistory {
		t.Fatal("all-NaN pixel must be unfittable")
	}
	if want[1].Status != StatusOK || want[1].Valid != N {
		t.Fatal("all-valid pixel must fit with full count")
	}
	got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, got, "edge")
}

// TestDetectBatchWorkersExceedPixels: worker counts far beyond M must
// not spawn zero-width goroutines or change results.
func TestDetectBatchWorkersExceedPixels(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	b := randomBatch(rng, 3, 200, 0.5)
	opt := defaultTestOpts(100)
	want := detectOracle(t, b, opt)
	for _, cfgW := range []int{1, 64, 1000} {
		got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: cfgW})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, "many-workers")
	}
}

// TestBatchMaskMatchesRows: Batch.MaskCtx must agree with per-row masks
// for any worker count.
func TestBatchMaskMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	b := randomBatch(rng, 20, 130, 0.6)
	for _, w := range []int{0, 1, 7} {
		bm, err := b.MaskCtx(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.M; i++ {
			want := series.MaskOf(b.Row(i))
			row := bm.Row(i)
			for wi := range row {
				if row[wi] != want.Words[wi] {
					t.Fatalf("workers=%d pixel %d word %d differs", w, i, wi)
				}
			}
		}
	}
}
