package bfast

import (
	"context"
	"errors"
	"math"
	"testing"
)

func exampleScene(t *testing.T, m, n, hist int) (*Scene, *Batch) {
	t.Helper()
	spec := SceneSpec{
		Name: "api-test", M: m, N: n, History: hist,
		NaNFrac: 0.4, BreakFrac: 0.5, BreakShift: -0.6, Seed: 71,
	}
	s, err := GenerateScene(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SceneBatch(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func TestNewDetectorValidates(t *testing.T) {
	if _, err := NewDetector(100, DefaultOptions(100)); err == nil {
		t.Fatal("history == N must fail")
	}
	d, err := NewDetector(100, DefaultOptions(50))
	if err != nil {
		t.Fatal(err)
	}
	if d.SeriesLen() != 100 || d.Options().History != 50 {
		t.Fatal("accessors broken")
	}
}

func TestDetectorSingleSeries(t *testing.T) {
	s, _ := exampleScene(t, 8, 256, 128)
	d, err := NewDetector(256, DefaultOptions(128))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		res, err := d.Detect(context.Background(), s.Y[i*256:(i+1)*256])
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == StatusOK && s.TrueBreak[i] >= 0 && res.HasBreak() {
			got := res.BreakIndex + 128
			if got < s.TrueBreak[i] {
				t.Fatalf("pixel %d: break %d before injected %d", i, got, s.TrueBreak[i])
			}
		}
	}
	if _, err := d.Detect(context.Background(), make([]float64, 10)); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestDetectorBatchMatchesSingle(t *testing.T) {
	_, b := exampleScene(t, 50, 200, 100)
	d, err := NewDetector(200, DefaultOptions(100))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.DetectBatch(context.Background(), b, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.M; i++ {
		single, err := d.Detect(context.Background(), b.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if single.BreakIndex != batch[i].BreakIndex || single.Status != batch[i].Status {
			t.Fatalf("pixel %d: batch %+v != single %+v", i, batch[i], single)
		}
	}
}

// sameResult is bit-identity of two results, NaN matching NaN.
func sameResult(a, b Result) bool {
	same := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	if a.Status != b.Status || a.BreakIndex != b.BreakIndex || a.ValidHistory != b.ValidHistory ||
		a.Valid != b.Valid || !same(a.Sigma, b.Sigma) || !same(a.MosumMean, b.MosumMean) || len(a.Beta) != len(b.Beta) {
		return false
	}
	for j := range a.Beta {
		if !same(a.Beta[j], b.Beta[j]) {
			return false
		}
	}
	return true
}

// TestDetectorBatchGeometryAgree: every tile width and worker count
// gives the per-pixel Detect results.
func TestDetectorBatchGeometryAgree(t *testing.T) {
	_, b := exampleScene(t, 32, 160, 80)
	d, err := NewDetector(160, DefaultOptions(80))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []BatchOptions{{}, {TileWidth: 1, Workers: 2}, {TileWidth: 64, Workers: 3}} {
		got, err := d.DetectBatch(context.Background(), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want, err := d.Detect(context.Background(), b.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(want, got[i]) {
				t.Fatalf("%+v pixel %d: batch %+v != single %+v", opts, i, got[i], want)
			}
		}
	}
	if _, err := d.DetectBatch(context.Background(), &Batch{M: 1, N: 5, Y: make([]float64, 5)}, BatchOptions{}); err == nil {
		t.Fatal("wrong batch length must fail")
	}
}

func TestMosumBoundary(t *testing.T) {
	d, _ := NewDetector(100, DefaultOptions(50))
	b0, err := d.MosumBoundary(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if b0 <= 0 {
		t.Fatal("boundary must be positive")
	}
}

func TestProcessCubeEndToEnd(t *testing.T) {
	spec := SceneSpec{
		Name: "cube-test", M: 24 * 24, N: 128, History: 64,
		NaNFrac: 0.4, Width: 24, BreakFrac: 0.3, BreakShift: -0.7, Seed: 72,
	}
	s, err := GenerateScene(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CubeFromFlat(24, 24, 128, s.Y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ProcessCube(context.Background(), c, DefaultOptions(64), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	total, neg := m.CountBreaks()
	if total == 0 || neg == 0 {
		t.Fatalf("expected detections: total=%d neg=%d", total, neg)
	}
	// Most detected breaks should be on truly-broken pixels.
	correct := 0
	for i, b := range m.Break {
		if b >= 0 && s.TrueBreak[i] >= 0 {
			correct++
		}
	}
	if total > 0 && float64(correct)/float64(total) < 0.7 {
		t.Fatalf("only %d/%d detections on injected pixels", correct, total)
	}
}

func TestSimulateGPUPublicAPI(t *testing.T) {
	_, b := exampleScene(t, 64, 128, 64)
	run, err := SimulateGPU(b, DefaultOptions(64), ProfileRTX2080Ti(), StrategyOurs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.KernelTime <= 0 || len(run.Kernels) == 0 {
		t.Fatal("simulation produced no kernel runs")
	}
	if len(run.Breaks) != 64 || len(run.Magnitudes) != 64 {
		t.Fatal("per-pixel results missing")
	}
	slow, err := SimulateGPU(b, DefaultOptions(64), ProfileTitanZ(), StrategyOurs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow.KernelTime <= run.KernelTime {
		t.Fatal("TITAN Z must model slower than 2080 Ti")
	}
}

func TestPresetScenes(t *testing.T) {
	names := PresetSceneNames()
	if len(names) < 8 {
		t.Fatalf("expected ≥8 presets, got %d", len(names))
	}
	spec, err := PresetScene("D2")
	if err != nil {
		t.Fatal(err)
	}
	if spec.M != 16384 || spec.N != 512 {
		t.Fatalf("D2 spec wrong: %+v", spec)
	}
	if _, err := PresetScene("bogus"); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestNewCubeHelpers(t *testing.T) {
	c, err := NewCube(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(c.At(0, 0, 0)) {
		t.Fatal("new cube must start NaN")
	}
	if _, err := CubeFromFlat(2, 2, 4, make([]float64, 3)); err == nil {
		t.Fatal("bad flat size must fail")
	}
	if _, err := ReadCubeFile("/nonexistent/cube.bfc"); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestProcessCubeStable(t *testing.T) {
	// A scene whose pixels carry a contaminated early history and NO
	// monitoring break: plain processing over-detects, ROC processing
	// should not.
	const W, H, N, n = 12, 12, 280, 200
	y := make([]float64, W*H*N)
	for i := 0; i < W*H; i++ {
		for t0 := 0; t0 < N; t0++ {
			v := 0.5 + 0.3*math.Sin(2*math.Pi*float64(t0+1)/23) +
				0.01*math.Sin(float64(i+7*t0))
			if t0 < 60 {
				v += 1.0
			}
			y[i*N+t0] = v
		}
	}
	c, err := CubeFromFlat(W, H, N, y)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(n)
	plain, err := ProcessCube(context.Background(), c, opt, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := ProcessCubeStable(context.Background(), c, opt, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := plain.CountBreaks()
	st, _ := stable.CountBreaks()
	if pt == 0 {
		t.Skip("contamination did not induce false breaks on this host seed")
	}
	if st >= pt {
		t.Fatalf("ROC processing should reduce false breaks: %d -> %d", pt, st)
	}
	if _, err := ProcessCubeStable(context.Background(), c, opt, 0.42, 0); err == nil {
		t.Fatal("bad level must fail")
	}
}

// TestProcessCubeMatchesDetect pins ProcessCube (with and without
// empty-slice removal) and ProcessCubeStable to the per-pixel Detect /
// DetectStable oracle: same break, and the MOSUM mean as magnitude
// exactly where the pixel's status is OK.
func TestProcessCubeMatchesDetect(t *testing.T) {
	const W, H, N, n = 10, 9, 150, 75
	s, _ := exampleScene(t, W*H, N, n)
	y := append([]float64(nil), s.Y...)
	for _, date := range []int{3, 40, 41, n + 5, N - 1} { // whole-scene outages
		for i := 0; i < W*H; i++ {
			y[i*N+date] = math.NaN()
		}
	}
	c, err := CubeFromFlat(W, H, N, y)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, m *BreakMap, want func(i int) Result) {
		t.Helper()
		for i := 0; i < W*H; i++ {
			r := want(i)
			mag := math.NaN()
			if r.Status == StatusOK {
				mag = r.MosumMean
			}
			if m.Break[i] != r.BreakIndex || math.Float64bits(m.Magnitude[i]) != math.Float64bits(mag) {
				t.Fatalf("%s pixel %d: map (%d, %v), Detect %+v", label, i, m.Break[i], m.Magnitude[i], r)
			}
		}
	}
	detectRows := func(work *Cube, hist int, stable bool) func(int) Result {
		d, err := NewDetector(work.Dates, DefaultOptions(hist))
		if err != nil {
			t.Fatal(err)
		}
		return func(i int) Result {
			row := work.Values[i*work.Dates : (i+1)*work.Dates]
			var r Result
			if stable {
				r, _, err = d.DetectStable(row)
			} else {
				r, err = d.Detect(context.Background(), row)
			}
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	ctx := context.Background()

	m, err := ProcessCube(ctx, c, DefaultOptions(n), false, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("dropEmpty=false", m, detectRows(c, n, false))

	compact, _, err := c.DropEmptySlices()
	if err != nil {
		t.Fatal(err)
	}
	if compact.Dates != N-5 {
		t.Fatalf("compacted to %d dates, want %d", compact.Dates, N-5)
	}
	const nc = n - 3 // three outages fall inside the history
	m, err = ProcessCube(ctx, c, DefaultOptions(nc), true, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("dropEmpty=true", m, detectRows(compact, nc, false))

	m, err = ProcessCubeStable(ctx, c, DefaultOptions(n), 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("stable", m, detectRows(c, n, true))

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ProcessCube(cancelled, c, DefaultOptions(n), true, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessCube on a cancelled context: err = %v", err)
	}
	if _, err := ProcessCubeStable(cancelled, c, DefaultOptions(n), 0.05, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessCubeStable on a cancelled context: err = %v", err)
	}
}
