// Command perfbench is the end-to-end serving benchmark with a
// per-layer ledger. It starts the real server.Server in-process on a
// loopback listener, drives it with one fixed-seed closed-loop workload
// over keep-alive connections, checks every reply against the scalar
// oracle core.Detect, and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured
// against the production-default server.Config. With --trace 1 it
// carries the per-layer metrics: the run serves half its time untraced
// and half with a trace ring deep enough to keep every timed request,
// and splits each request's latency over the server's span trees.
// --workload all runs every workload both ways and prints the whole
// ledger, with the end-to-end metric each layer metric should move.
//
// Run it from the repository root through perfbench/run.sh, which
// builds the command inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric. moves records which end-to-end
// metric, on which workload, a per-layer metric should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of the server sees, measured in the
// untraced run; BENCHMARK.json bounds each of them.
var endToEnd = []metricDef{
	{"results_per_s", "1/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_p90_ms", "ms", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"alloc_bytes_per_result", "B", "lower", ""},
	{"allocs_per_result", "count", "lower", ""},
	{"rss_peak_mb", "MB", "lower", ""},
}

// ledgerOnly are end-to-end figures that are 0 or undefined on some
// workloads, so they are printed but not bounded: fit_ms exists only on
// nrt_stream and failed_frac is 0 whenever the server is correct.
var ledgerOnly = []metricDef{
	{"fit_ms", "ms", "lower", ""},
	{"failed_frac", "frac", "lower", ""},
	{"latency_samples", "count", "higher", ""},
}

var perLayer = []metricDef{
	{"server.read_decode_ms", "ms", "lower", "latency_p50_ms, results_per_s on large_batch"},
	{"server.decode_mb_per_s", "MB/s", "higher", "latency_p50_ms, results_per_s on large_batch"},
	{"server.pack_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"server.encode_ms", "ms", "lower", "latency_p50_ms on nrt_stream"},
	{"server.self_ms", "ms", "lower", "results_per_s on small_mix"},
	{"server.req_bytes_per_result", "B", "lower", "results_per_s on large_batch"},
	{"server.resp_bytes_per_result", "B", "lower", "results_per_s on large_batch"},
	{"server.span_coverage_pct", "%", "higher", "none: a request's span tree should account for its latency"},
	{"client.outside_server_ms", "ms", "lower", "results_per_s on small_mix"},
	{"core.detect_ms", "ms", "lower", "latency_p50_ms on large_batch and small_mix"},
	{"core.mask_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"core.gather_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"core.cross_product_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"core.invert_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"core.residual_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"core.mosum_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"core.unspanned_ms", "ms", "lower", "latency_p50_ms on large_batch"},
	{"core.cpu_ns_per_px.cross_product", "ns", "lower", "latency_p50_ms on large_batch"},
	{"core.cpu_ns_per_px.invert", "ns", "lower", "latency_p50_ms on large_batch"},
	{"core.cpu_ns_per_px.residual", "ns", "lower", "latency_p50_ms on large_batch"},
	{"core.cpu_ns_per_px.mosum", "ns", "lower", "latency_p50_ms on large_batch"},
	{"core.cpu_ns_per_px.fused", "ns", "lower", "latency_p50_ms on large_batch"},
	{"core.parallel_eff", "ratio", "higher", "results_per_s on large_batch"},
	{"core.pad_waste_pct", "%", "lower", "results_per_s on small_mix"},
	{"core.lane_fill_pct", "%", "higher", "results_per_s on small_mix"},
	{"core.sched_imbalance_pct", "%", "lower", "latency_p90_ms on large_batch"},
	{"core.direct_detect_ms", "ms", "lower", "none: outside reference for core.detect_ms"},
	{"coalesce.wait_ms", "ms", "lower", "latency_p50_ms on small_mix_coalesced"},
	{"coalesce.mean_flush_px", "count", "higher", "results_per_s on small_mix_coalesced"},
	{"coalesce.flush_share.size", "frac", "higher", "results_per_s on small_mix_coalesced"},
	{"coalesce.flush_share.deadline", "frac", "lower", "results_per_s on small_mix_coalesced"},
	{"coalesce.flush_share.idle", "frac", "higher", "results_per_s on small_mix_coalesced"},
	{"nrt.fit_ms", "ms", "lower", "fit_ms on nrt_stream"},
	{"nrt.advance_ms", "ms", "lower", "latency_p50_ms on nrt_stream"},
	{"nrt.fit_cache_hit_frac", "frac", "lower", "none: must be 0, guards fit_ms"},
	{"state.snapshot_ms", "ms", "lower", "latency_p50_ms on nrt_stream"},
	{"state.snapshot_bytes", "B", "lower", "latency_p50_ms on nrt_stream"},
	{"state.encode_ms", "ms", "lower", "none: outside reference for state.snapshot_ms"},
	{"state.save_ms", "ms", "lower", "none: outside reference for state.snapshot_ms"},
	{"runtime.gc_cycles_per_req", "count", "lower", "latency_p90_ms on large_batch"},
	{"runtime.gc_pause_ms_per_req", "ms", "lower", "latency_p90_ms on large_batch"},
	{"obs.trace_overhead_pct", "%", "lower", "none: cost of keeping every span tree"},
}

// workloadDef is one traffic mix. why is recorded in BENCHMARK.json.
type workloadDef struct {
	name, why string
	conns     int
	run       func(e *env) (*outcome, error)
}

var workloads = []workloadDef{
	{"large_batch", "one 4096x412 /v1/batch (Table I geometry, 10 MB JSON) per request on 1 connection: ingest and kernels dominate, per-request fixed costs do not", 1, runLarge},
	{"small_mix", "1,1,4,1-pixel /v1/batch requests on 2 connections: the per-request fixed cost of the serving spine, design matrix, mask, plan and a mostly empty tile dominates", 2, runSmallMix},
	{"small_mix_coalesced", "small_mix against a server with request coalescing on: the only workload that runs internal/coalesce and its flush policy", 2, runSmallMixCoalesced},
	{"nrt_stream", "a 4096-pixel /v1/fit, 114 one-date /v1/observe and a DELETE per fresh scene on 1 connection, fit cache full, in-memory sessions: snapshot and encode dominate, kernels barely run", 1, runNRT},
}

// env is one run's settings.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	conns   int
	workDir string // scratch inside the checkout, removed on exit
	ctx     map[string]any
	out     io.Writer // the traced run's span ledger
}

// outcome is one run's verdict and metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) merge(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "timed seconds per run")
	trace := flag.Int("trace", 0, "1 = per-layer (traced) run, 0 = end-to-end run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	workDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	var defs []workloadDef
	for _, w := range workloads {
		if w.name == name || name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	traces := []bool{trace == 1}
	if name == "all" {
		traces = []bool{false, true}
	}
	// result holds the metrics of the last line: the contract's set for
	// a single run, everything keyed "<workload>.<metric>" for all.
	result := map[string]value{}
	var attempted, failed int
	for _, w := range defs {
		for _, tr := range traces {
			e := &env{
				seed: seed, seconds: time.Duration(seconds) * time.Second, trace: tr,
				conns: min(w.conns, runtime.NumCPU()), workDir: workDir, out: os.Stdout,
			}
			e.ctx = map[string]any{
				"workload": w.name, "seed": seed, "connections": e.conns, "traced": tr,
				"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
				"cpu": cpuModel(), "go": runtime.Version(),
				"closed_loop": true,
			}
			o, err := w.run(e)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			attempted += o.attempted
			failed += o.failed
			contract, printed := perLayer, perLayer
			if !tr {
				contract = endToEnd
				printed = append(append([]metricDef(nil), endToEnd...), ledgerOnly...)
				o.metrics["failed_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
			}
			ctxLine, err := json.Marshal(e.ctx)
			if err != nil {
				return err
			}
			fmt.Printf("context %s\n", ctxLine)
			for i, d := range printed {
				v, ok := o.metrics[d.name]
				if !ok {
					return fmt.Errorf("%s: metric %s not measured", w.name, d.name)
				}
				line := fmt.Sprintf("metric %s %-34s %14.6g %s", w.name, d.name, v, d.unit)
				if d.moves != "" {
					line += "  (moves " + d.moves + ")"
				}
				fmt.Println(line)
				switch {
				case name == "all":
					result[w.name+"."+d.name] = value{v, d.unit}
				case i < len(contract):
					result[d.name] = value{v, d.unit}
				}
			}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   result,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed or were wrong", failed, attempted)
	}
	return nil
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
