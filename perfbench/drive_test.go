package main

import (
	"io"
	"math"
	"testing"
	"time"
)

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i)*time.Millisecond, 2)
	}
	p50, p90 := h.p50p90()
	for _, c := range []struct{ got, want float64 }{{p50, 500.5}, {p90, 900.1}} {
		if math.Abs(c.got/c.want-1) > 0.005 {
			t.Errorf("quantile %v ms, want %v within 0.5%%", c.got, c.want)
		}
	}
	if h.n != 1000 || h.results != 2000 {
		t.Errorf("n %d results %d", h.n, h.results)
	}
	var other hist
	other.add(0, 1)
	other.add(time.Hour*1000, 1) // past the last bucket
	h.merge(&other)
	if h.n != 1002 || h.quantile(0) > 2e-3 || h.quantile(1) < 4e5 {
		t.Errorf("merged extremes: n %d, min %v ms, max %v ms", h.n, h.quantile(0), h.quantile(1))
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

// A short end-to-end run of the small mix, untraced and traced: every
// reply is checked, every metric is reported, and the traced run finds
// a span tree for every timed request.
func TestSmallMixRunsBothWays(t *testing.T) {
	for _, traced := range []bool{false, true} {
		e := &env{seed: 4, seconds: 400 * time.Millisecond, trace: traced, conns: 2,
			workDir: t.TempDir(), ctx: map[string]any{}, out: io.Discard}
		o, err := runSmallMix(e)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || o.attempted < minSamples {
			t.Fatalf("traced=%v: %d of %d failed", traced, o.failed, o.attempted)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			if _, ok := o.metrics[d.name]; !ok {
				t.Errorf("traced=%v: %s missing", traced, d.name)
			}
		}
		if !traced {
			for _, d := range endToEnd {
				if o.metrics[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, o.metrics[d.name])
				}
			}
			continue
		}
		if o.metrics["server.span_coverage_pct"] <= 0 || o.metrics["core.detect_ms"] <= 0 {
			t.Errorf("traced metrics empty: %v", o.metrics)
		}
	}
}
