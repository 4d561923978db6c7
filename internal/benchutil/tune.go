package benchutil

import (
	"context"

	"fmt"
	"math"
	"time"

	"bfast/internal/autotune"
	"bfast/internal/core"
	"bfast/internal/workload"
)

// TuneRow is the autotuner experiment's verification: the tuned (tile
// width, workers) geometry measured against the default BatchConfig{}
// on the full sample, with both runs checked bit for bit against the
// scalar core.Detect.
type TuneRow struct {
	// TileWidth and Workers are the autotuner's choice.
	TileWidth int
	Workers   int
	// M, N, History, NaNFrac describe the verification workload.
	M, N, History int
	NaNFrac       float64
	// Default and Tuned are best-of-reps wall times of DetectBatch at the
	// default and at the tuned geometry.
	Default, Tuned time.Duration
	// Speedup is Default/Tuned.
	Speedup float64
	// Identical reports whether both runs returned results bit-identical
	// to core.Detect on every pixel.
	Identical bool
}

// TuneReport is the tune experiment's structured output: the raw sweep
// (every candidate the autotuner measured), the skew-gauge seed that
// ordered it, and the verification row.
type TuneReport struct {
	Seed  autotune.Seed        `json:"seed"`
	Sweep []autotune.Candidate `json:"sweep"`
	Rows  []TuneRow            `json:"rows"`
}

// tuneReps is the number of timed repetitions per geometry (best is kept,
// so scheduling noise inflates neither side).
const tuneReps = 3

// Tune runs the startup autotuner on the 50%-NaN cloud-masked scene
// shape and then verifies the chosen geometry at full sample size
// against the default one: the measured step change the sweep claims,
// with bit-identity against core.Detect checked. The sweep is fresh
// (cache bypassed, so the report reflects this host now) unless
// cfg.Autotune asks for the tuner's cached choice, the path bfast-serve
// -autotune takes at startup.
func Tune(ctx context.Context, cfg Config) (*TuneReport, error) {
	cfg = cfg.withDefaults()
	spec := workload.Spec{
		Name: "skew50", M: cfg.SampleM, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 7,
	}
	spec, _ = sampledSpec(spec, cfg)
	opt := core.DefaultOptions(spec.History)

	ch, err := autotune.Tune(ctx, autotune.Config{
		N: spec.N, Opt: opt,
		SampleM: min(512, spec.M),
		Workers: workerCandidates(cfg.Workers),
		NoCache: !cfg.Autotune,
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(cfg.Out, "TUNE — startup autotuner sweep + verification (50%% NaN clouds, M=%d N=%d)\n", spec.M, spec.N)
	if ch.Seed.Observed {
		fmt.Fprintf(cfg.Out, "seed: pad waste %.1f%%, loop imbalance %.1f%% (from prior batches)\n",
			ch.Seed.PadWastePct, ch.Seed.ImbalancePct)
	} else {
		fmt.Fprintf(cfg.Out, "seed: no prior skew observations (default candidate order)\n")
	}
	fmt.Fprintf(cfg.Out, "sweep (%d candidates, per-pixel, from cache: %v):\n", len(ch.Sweep), ch.FromCache)
	for _, c := range ch.Sweep {
		fmt.Fprintf(cfg.Out, "  T=%-3d workers=%-3d %10v\n", c.TileWidth, c.Workers, c.PerPixel)
	}
	fmt.Fprintf(cfg.Out, "chosen: T=%d workers=%d (%v/pixel)\n\n", ch.TileWidth, ch.Workers, ch.PerPixel)

	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		return nil, err
	}
	want, err := detectEach(b, opt)
	if err != nil {
		return nil, err
	}
	defRes, defT, err := bestOf(tuneReps, func() ([]core.Result, error) {
		return core.DetectBatch(ctx, b, opt, core.BatchConfig{Workers: cfg.Workers})
	})
	if err != nil {
		return nil, err
	}
	tuned := ch.BatchConfig()
	tunedRes, tunedT, err := bestOf(tuneReps, func() ([]core.Result, error) {
		return core.DetectBatch(ctx, b, opt, tuned)
	})
	if err != nil {
		return nil, err
	}
	row := TuneRow{
		TileWidth: tuned.ResolvedTileWidth(), Workers: tuned.Workers,
		M: spec.M, N: spec.N, History: spec.History, NaNFrac: spec.NaNFrac,
		Default: defT, Tuned: tunedT,
		Speedup:   defT.Seconds() / tunedT.Seconds(),
		Identical: resultsIdentical(want, defRes) && resultsIdentical(want, tunedRes),
	}
	fmt.Fprintf(cfg.Out, "verification at M=%d (tuned vs default geometry, both vs core.Detect):\n", spec.M)
	fmt.Fprintf(cfg.Out, "%3s %3s %10s %10s %8s %10s\n", "T", "W", "default", "tuned", "speedup", "identical")
	fmt.Fprintf(cfg.Out, "%3d %3d %10s %10s %7.2fx %10v\n",
		row.TileWidth, row.Workers, shortDur(row.Default), shortDur(row.Tuned), row.Speedup, row.Identical)
	return &TuneReport{Seed: ch.Seed, Sweep: ch.Sweep, Rows: []TuneRow{row}}, nil
}

// workerCandidates narrows the autotuner's worker sweep to an explicit
// -workers flag when one was given.
func workerCandidates(workers int) []int {
	if workers > 0 {
		return []int{workers}
	}
	return nil
}

// detectEach runs the scalar core.Detect over every pixel — the oracle
// the batched runs are checked against.
func detectEach(b *core.Batch, opt core.Options) ([]core.Result, error) {
	x, err := core.DesignFor(opt, b.N)
	if err != nil {
		return nil, err
	}
	out := make([]core.Result, b.M)
	for i := range out {
		if out[i], err = core.Detect(b.Row(i), x, opt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bestOf runs fn reps times and returns the last result with the minimum
// wall time observed.
func bestOf(reps int, fn func() ([]core.Result, error)) ([]core.Result, time.Duration, error) {
	var (
		best time.Duration = 1<<63 - 1
		out  []core.Result
	)
	for r := 0; r < reps; r++ {
		start := time.Now()
		res, err := fn()
		d := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		if d < best {
			best = d
		}
		out = res
	}
	return out, best, nil
}

// resultsIdentical compares two result sets with exact float equality
// (NaN pairs count as equal) — the bit-identical contract between
// DetectBatch and core.Detect.
func resultsIdentical(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.Status != q.Status || p.BreakIndex != q.BreakIndex ||
			p.ValidHistory != q.ValidHistory || p.Valid != q.Valid ||
			!eq(p.Sigma, q.Sigma) || !eq(p.MosumMean, q.MosumMean) ||
			len(p.Beta) != len(q.Beta) {
			return false
		}
		for j := range p.Beta {
			if !eq(p.Beta[j], q.Beta[j]) {
				return false
			}
		}
	}
	return true
}
