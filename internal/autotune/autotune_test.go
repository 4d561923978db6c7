package autotune

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfast/internal/core"
	"bfast/internal/obs"
)

// tinyConfig is a sweep small enough for unit tests: one candidate per
// axis on a 32-pixel scene.
func tinyConfig() Config {
	return Config{
		N: 80, Opt: core.DefaultOptions(40),
		SampleM: 32, Reps: 1,
		TileWidths: []int{8},
		Workers:    []int{1},
		NoCache:    true,
	}
}

func resetMemory() {
	memMu.Lock()
	memory = map[string]*Choice{}
	memMu.Unlock()
}

func TestTuneSweepTinyShape(t *testing.T) {
	ch, err := Tune(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ch.TileWidth != 8 || ch.Workers != 1 {
		t.Fatalf("choice geometry (%d, %d), swept only (8, 1)", ch.TileWidth, ch.Workers)
	}
	if ch.PerPixel <= 0 {
		t.Fatal("per-pixel time must be positive")
	}
	if len(ch.Sweep) != 1 {
		t.Fatalf("sweep recorded %d candidates, want 1", len(ch.Sweep))
	}
	if ch.FromCache {
		t.Fatal("NoCache sweep must not report a cache hit")
	}
	bcfg := ch.BatchConfig()
	if bcfg.TileWidth != ch.TileWidth || bcfg.Workers != ch.Workers || bcfg.Autotune {
		t.Fatalf("BatchConfig round-trip lost fields: %+v vs %+v", bcfg, ch)
	}
}

// TestTuneCacheRoundTrip pins the file-cache contract: a second Tune for
// the same (host, K, N, history) key must read the saved choice instead
// of re-sweeping, surviving a process restart (simulated by clearing the
// in-process memo).
func TestTuneCacheRoundTrip(t *testing.T) {
	resetMemory()
	defer resetMemory()
	cacheFile := filepath.Join(t.TempDir(), "autotune.json")
	cfg := tinyConfig()
	cfg.NoCache = false
	cfg.CacheFile = cacheFile

	first, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first call must sweep")
	}
	if _, err := os.Stat(cacheFile); err != nil {
		t.Fatalf("sweep did not write the cache file: %v", err)
	}

	resetMemory() // simulate a process restart: only the file survives
	second, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("second call must hit the file cache")
	}
	if second.TileWidth != first.TileWidth || second.Workers != first.Workers {
		t.Fatalf("cache round-trip changed the choice: %+v vs %+v", second, first)
	}

	// Third call hits the in-process memo populated by the file load.
	third, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !third.FromCache {
		t.Fatal("third call must hit the memo")
	}
}

// TestTuneCorruptCacheSweeps pins the never-fail contract of the cache:
// unreadable JSON means "sweep", not an error.
func TestTuneCorruptCacheSweeps(t *testing.T) {
	resetMemory()
	defer resetMemory()
	cacheFile := filepath.Join(t.TempDir(), "autotune.json")
	if err := os.WriteFile(cacheFile, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.NoCache = false
	cfg.CacheFile = cacheFile
	ch, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.FromCache {
		t.Fatal("corrupt cache must force a sweep")
	}
}

// TestTuneIgnoresV1CacheEntry: an entry written under the v1 key (tuned
// for the retired staged path) is never replayed; the lookup misses,
// the sweep runs, and its result lands under the current version's key.
func TestTuneIgnoresV1CacheEntry(t *testing.T) {
	resetMemory()
	defer resetMemory()
	cacheFile := filepath.Join(t.TempDir(), "autotune.json")
	cfg := tinyConfig()
	cfg.NoCache = false
	cfg.CacheFile = cacheFile
	key := cfg.withDefaults().key()
	if !strings.HasPrefix(key, cacheVersion+"/") || cacheVersion == "v1" {
		t.Fatalf("key %q: want a non-v1 version prefix", key)
	}
	v1Key := "v1" + strings.TrimPrefix(key, cacheVersion)
	stale := Choice{TileWidth: 64, Workers: 7, PerPixel: 1}
	saveCache(cacheFile, v1Key, &stale)

	ch, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.FromCache || ch.TileWidth != 8 || ch.Workers != 1 {
		t.Fatalf("v1 entry replayed: %+v", ch)
	}
	if got := loadCache(cacheFile, key); got == nil || got.TileWidth != 8 {
		t.Fatalf("sweep result not cached under %q: %+v", key, got)
	}
}

// TestResolveNoOp: Resolve leaves configs without the Autotune flag
// untouched — core never pays for a sweep it was not asked for.
func TestResolveNoOp(t *testing.T) {
	in := core.BatchConfig{Workers: 3, TileWidth: 16}
	out, err := Resolve(context.Background(), in, 80, core.DefaultOptions(40))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("Resolve changed a non-autotune config: %+v vs %+v", out, in)
	}
}

// TestOrderCandidatesSeed pins the skew-seeded ordering: wide tiles and
// full parallelism first by default, flipped when the published skew
// gauges say padding waste (narrow tiles) or steal-loop imbalance (fewer
// workers) dominates.
func TestOrderCandidatesSeed(t *testing.T) {
	cfg := Config{TileWidths: []int{4, 8, 16}, Workers: []int{1, 2, 4}}
	widths, workers := orderCandidates(cfg, Seed{})
	if widths[0] != 16 || workers[0] != 4 {
		t.Fatalf("default order must be widest/most-parallel first: %v %v", widths, workers)
	}
	widths, workers = orderCandidates(cfg, Seed{Observed: true, PadWastePct: 50, ImbalancePct: 50})
	if widths[0] != 4 || workers[0] != 1 {
		t.Fatalf("skewed seed must flip both orders: %v %v", widths, workers)
	}
	// Below thresholds the defaults stand even when observed.
	widths, workers = orderCandidates(cfg, Seed{Observed: true, PadWastePct: 5, ImbalancePct: 5})
	if widths[0] != 16 || workers[0] != 4 {
		t.Fatalf("mild skew must keep default order: %v %v", widths, workers)
	}
}

// TestReadSeedFromRegistry: the seed reflects the mean of the published
// skew histograms.
func TestReadSeedFromRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("tile.pad.waste_pct", nil)
	h.Observe(10)
	h.Observe(30)
	s := readSeed(reg)
	if !s.Observed {
		t.Fatal("seed must be observed after histogram samples")
	}
	if s.PadWastePct != 20 {
		t.Fatalf("pad waste mean %v, want 20", s.PadWastePct)
	}
	if s.ImbalancePct != 0 {
		t.Fatalf("imbalance %v, want 0 (never published)", s.ImbalancePct)
	}
}
