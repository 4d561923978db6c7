package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bfast/internal/workload"
)

// The single-oracle differential test: DetectBatch against the scalar
// Detect, bit for bit and status for status, over every tile width,
// worker count, solver and missingness pattern below.

// The history holds nine multiples of the period 23, enough for the
// singular case of degenerateRows to pass the n̄ ≥ K check.
const oracleN, oracleHist = 300, 200

// missingness patterns, each an M×N batch builder. Rates are per date
// unless stated; every pattern keeps N % 64 != 0 so the tail mask word
// is in play.
var oraclePatterns = []struct {
	name  string
	build func(rng *rand.Rand, m int) []float64
}{
	{"uniform0", func(rng *rand.Rand, m int) []float64 { return uniformRows(rng, m, 0) }},
	{"uniform50", func(rng *rand.Rand, m int) []float64 { return uniformRows(rng, m, 0.5) }},
	{"uniform95", func(rng *rand.Rand, m int) []float64 { return uniformRows(rng, m, 0.95) }},
	{"clouds", cloudRows},
	{"perPixelRates", func(rng *rand.Rand, m int) []float64 {
		// Heterogeneous missingness (Follain–Wang): each pixel draws its
		// own rate, from fully observed to nearly empty.
		y := make([]float64, 0, m*oracleN)
		for i := 0; i < m; i++ {
			y = append(y, oracleRow(rng, i, rng.Float64())...)
		}
		return y
	}},
	{"dateBlockOutages", func(rng *rand.Rand, m int) []float64 {
		// Sensor outages blank contiguous date blocks across every pixel
		// (one in the history, one straddling the monitoring start, one
		// late), on top of 20% scattered clouds.
		y := uniformRows(rng, m, 0.2)
		for _, blk := range [][2]int{{20, 45}, {oracleHist - 10, oracleHist + 15}, {270, 290}} {
			for i := 0; i < m; i++ {
				for t := blk[0]; t < blk[1]; t++ {
					y[i*oracleN+t] = math.NaN()
				}
			}
		}
		return y
	}},
	{"degenerate", degenerateRows},
}

// oracleRow is one synthetic pixel: stable, negative or positive break
// by index, at missing rate nanFrac.
func oracleRow(rng *rand.Rand, i int, nanFrac float64) []float64 {
	brk, shift := -1, 0.0
	switch i % 3 {
	case 1:
		brk, shift = oracleHist+10+rng.Intn(60), -0.7
	case 2:
		brk, shift = oracleHist+10+rng.Intn(60), 0.7
	}
	return synthSeries(rng, oracleN, 3, 23, 0.03, brk, shift, nanFrac)
}

func uniformRows(rng *rand.Rand, m int, nanFrac float64) []float64 {
	y := make([]float64, 0, m*oracleN)
	for i := 0; i < m; i++ {
		y = append(y, oracleRow(rng, i, nanFrac)...)
	}
	return y
}

func cloudRows(rng *rand.Rand, m int) []float64 {
	ds, err := workload.Generate(workload.Spec{
		Name: "oracle", M: m, N: oracleN, History: oracleHist,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: rng.Int63(), Width: 8,
	})
	if err != nil {
		panic(err)
	}
	return ds.Y
}

// degenerateRows cycles through the pixels that reach every non-OK
// status and the non-finite inputs: all-NaN rows, constant series,
// ±Inf in the history and in the monitoring period, an empty
// monitoring period, and history dates on the harmonics' zeros (a normal
// matrix singular up to rounding: Cholesky rejects it, the Gauss-Jordan
// solvers fit it), interleaved with ordinary pixels so they share tiles.
func degenerateRows(rng *rand.Rand, m int) []float64 {
	y := make([]float64, 0, m*oracleN)
	for i := 0; i < m; i++ {
		row := oracleRow(rng, i, 0.3)
		switch i % 8 {
		case 0: // all NaN
			for t := range row {
				row[t] = math.NaN()
			}
		case 1: // constant
			for t := range row {
				row[t] = 0.25
			}
		case 2: // +Inf in the history
			row[oracleHist/2] = math.Inf(1)
		case 3: // -Inf in the monitoring period
			row[oracleHist+30] = math.Inf(-1)
		case 4: // nothing observed after the history
			for t := oracleHist; t < oracleN; t++ {
				row[t] = math.NaN()
			}
		case 5: // history observed only where every sin(2πjt/23) is 0
			for t := 0; t < oracleHist; t++ {
				row[t] = math.NaN()
				if t%23 == 0 {
					row[t] = 0.5 + 0.001*float64(t)
				}
			}
		}
		y = append(y, row...)
	}
	return y
}

// TestDetectBatchMatchesDetect is the acceptance matrix of the one
// batched detection path: tile widths {1, 3, 8, 17, 64} × the three
// solvers × every missingness pattern, each run compared with the
// per-pixel Detect bit for bit. Worker counts {1, 2, 3} form a Latin
// square with solver and tile width, so every worker count meets every
// solver and every width without tripling the matrix (a tile's result
// does not depend on which worker runs it). Across the matrix the
// oracle must reach every Status, so the status mapping is compared on
// live pixels, not only on StatusOK.
func TestDetectBatchMatchesDetect(t *testing.T) {
	const m = 70 // one full 64-wide tile plus a ragged tail at T = 64
	seen := map[Status]bool{}
	for pi, pat := range oraclePatterns {
		rng := rand.New(rand.NewSource(int64(130 + pi)))
		b, err := NewBatch(m, oracleN, pat.build(rng, m))
		if err != nil {
			t.Fatal(err)
		}
		for si, solver := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
			opt := defaultTestOpts(oracleHist)
			opt.Solver = solver
			want := detectOracle(t, b, opt)
			for _, r := range want {
				seen[r.Status] = true
			}
			for ti, tw := range []int{1, 3, 8, 17, 64} {
				workers := 1 + (si+ti)%3
				got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: workers, TileWidth: tw})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, want, got, fmt.Sprintf("%s/%s/T=%d/w=%d", pat.name, solver, tw, workers))
			}
		}
	}
	for s := StatusOK; s <= StatusNoVariance; s++ {
		if !seen[s] {
			t.Errorf("no pattern reaches status %v", s)
		}
	}
}
