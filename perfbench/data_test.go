package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"bfast/internal/server"
)

func sameBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestBodiesDependOnlyOnSeed(t *testing.T) {
	gens := map[string]func(int64) ([][]byte, error){
		"large_batch": func(seed int64) ([][]byte, error) {
			b, err := genLarge(seed)
			if err != nil {
				return nil, err
			}
			return b.bodies, nil
		},
		"small_mix": func(seed int64) ([][]byte, error) {
			b, err := genSmallMix(seed)
			if err != nil {
				return nil, err
			}
			return b.bodies, nil
		},
		"nrt_stream": func(seed int64) ([][]byte, error) {
			var out [][]byte
			for k := -1; k < 2; k++ {
				sc, err := genScene(seed, k, 256)
				if err != nil {
					return nil, err
				}
				obs, err := sc.observeBodies("s-0123456789abcdef")
				if err != nil {
					return nil, err
				}
				out = append(append(out, sc.fitBody), obs...)
			}
			return out, nil
		},
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(8)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBodies(a, b) {
			t.Errorf("%s: seed 7 gave different bodies on two calls", name)
		}
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s: body %d is the same under seeds 7 and 8", name, i)
				break
			}
		}
	}
}

func TestBodiesAreWellFormed(t *testing.T) {
	small, err := genSmallMix(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range small.bodies {
		var req server.DetectRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if len(req.Pixels) != smallSizes[i%len(smallSizes)] || req.History != smallHistory {
			t.Fatalf("body %d: %d pixels, history %d", i, len(req.Pixels), req.History)
		}
	}
	sc, err := genScene(3, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := sc.observeBodies("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != nrtObserves {
		t.Fatalf("%d observe bodies, want %d", len(bodies), nrtObserves)
	}
	var obs server.ObserveHTTPRequest
	if err := json.Unmarshal(bodies[0], &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Session != "s-1" || len(obs.Dates) != 1 || len(obs.Dates[0]) != 16 {
		t.Fatalf("observe body decodes to %+v", obs)
	}
}

// The correctness gate must reject a reply that differs from the oracle
// in any checked field, including the last bit of a float.
func TestCheckBatchRejectsWrongReplies(t *testing.T) {
	set, err := genSmallMix(5)
	if err != nil {
		t.Fatal(err)
	}
	i := 2 // a 4-pixel request
	var good []server.DetectResponse
	for _, r := range set.expect[i] {
		d := server.DetectResponse{Status: r.Status.String(), BreakIndex: r.BreakIndex,
			ValidHistory: r.ValidHistory, Valid: r.Valid}
		if r.Status.String() == "ok" {
			m, s := r.MosumMean, r.Sigma
			d.Magnitude, d.Sigma = &m, &s
		}
		good = append(good, d)
	}
	marshal := func(v []server.DetectResponse) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if err := checkBatch(marshal(good), set.expect[i]); err != nil {
		t.Fatalf("oracle-built reply rejected: %v", err)
	}
	ok := -1
	for j, d := range good {
		if d.Magnitude != nil {
			ok = j
		}
	}
	if ok < 0 {
		t.Fatal("no ok pixel in the request")
	}
	mutations := map[string]func(d []server.DetectResponse){
		"status":     func(d []server.DetectResponse) { d[0].Status = "singular" },
		"breakIndex": func(d []server.DetectResponse) { d[0].BreakIndex += 7 },
		"valid":      func(d []server.DetectResponse) { d[0].Valid++ },
		"magnitude": func(d []server.DetectResponse) {
			m := math.Nextafter(*d[ok].Magnitude, math.Inf(1))
			d[ok].Magnitude = &m
		},
		"sigma":   func(d []server.DetectResponse) { d[ok].Sigma = nil },
		"missing": func(d []server.DetectResponse) { copy(d, d[1:]) },
	}
	for name, mut := range mutations {
		bad := append([]server.DetectResponse(nil), good...)
		mut(bad)
		if name == "missing" {
			bad = bad[:len(bad)-1]
		}
		if err := checkBatch(marshal(bad), set.expect[i]); err == nil {
			t.Errorf("%s mutation accepted", name)
		}
	}
	if err := checkBatch([]byte(strings.Repeat("[", 3)), set.expect[i]); err == nil {
		t.Error("malformed reply accepted")
	}
}
