package bfast

import (
	"time"

	"bfast/internal/core"
	"bfast/internal/gpusim"
	"bfast/internal/kernels"
	"bfast/internal/workload"
)

// Strategy selects the simulated kernel organization (the code versions
// of Fig. 8 of the paper); all strategies compute identical results.
type Strategy = kernels.Strategy

// The simulated kernel organizations. See the kernels package.
const (
	StrategyOurs      = kernels.StrategyOurs
	StrategyRgTlEfSeq = kernels.StrategyRgTlEfSeq
	StrategyFullEfSeq = kernels.StrategyFullEfSeq
)

// GPUProfile is a simulated-device cost model (see internal/gpusim).
type GPUProfile = gpusim.Profile

// ProfileRTX2080Ti approximates the paper's §IV evaluation GPU.
func ProfileRTX2080Ti() GPUProfile { return gpusim.RTX2080Ti() }

// ProfileTitanZ approximates the paper's §V large-scale GPU.
func ProfileTitanZ() GPUProfile { return gpusim.TitanZ() }

// GPURun summarizes one simulated whole-application execution.
type GPURun struct {
	// Breaks and Magnitudes are the per-pixel results (float32 pipeline).
	Breaks     []int
	Magnitudes []float32
	// KernelTime is the modeled device time.
	KernelTime time.Duration
	// Kernels lists the modeled per-kernel executions.
	Kernels []gpusim.KernelRun
}

// SimulateGPU executes BFAST-Monitor functionally in float32 (the GPU's
// arithmetic) over the batch and models the kernel times the paper's GPU
// implementation would take on the given device, under the chosen
// strategy. sampleM > 0 runs the simulation on a strided sub-batch of
// that many pixels and extrapolates the modeled times (the returned
// results then cover only the sub-batch). See DESIGN.md for the scope and
// calibration of the simulation.
func SimulateGPU(b *Batch, opt Options, profile GPUProfile, strat Strategy, sampleM int) (*GPURun, error) {
	b32, err := kernels.FromFloat64(b.M, b.N, b.Y)
	if err != nil {
		return nil, err
	}
	dev := gpusim.NewDevice(profile)
	res, err := kernels.SimulateApp(dev, b32, opt, strat, sampleM)
	if err != nil {
		return nil, err
	}
	return &GPURun{
		Breaks:     res.Breaks,
		Magnitudes: res.Means,
		KernelTime: res.KernelTime,
		Kernels:    res.Runs,
	}, nil
}

// SceneSpec describes a synthetic satellite scene (see internal/workload);
// the Table I presets are available through PresetScene.
type SceneSpec = workload.Spec

// Scene is a generated synthetic dataset with break ground truth.
type Scene = workload.Dataset

// GenerateScene builds a synthetic scene for the spec.
func GenerateScene(spec SceneSpec) (*Scene, error) { return workload.Generate(spec) }

// PresetScene returns a named dataset spec from the paper's evaluation
// ("D1".."D6", "Peru (Small)", "Africa (Small)", "PeruSmallScene",
// "PeruLargeScene", "AfricaImageScene").
func PresetScene(name string) (SceneSpec, error) { return workload.Preset(name) }

// PresetSceneNames lists all available preset names.
func PresetSceneNames() []string { return workload.PresetNames() }

// SceneBatch wraps a generated scene as a Batch (sharing storage).
func SceneBatch(s *Scene) (*Batch, error) {
	return core.NewBatch(s.Spec.M, s.Spec.N, s.Y)
}
