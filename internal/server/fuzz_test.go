package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzBatchDecode drives arbitrary bytes through the full /v1/batch
// path — JSON decode, framing validation, packing and (for inputs that
// survive validation) the batched detector. The server must never
// panic, never 5xx on malformed input, and every response must be
// well-formed JSON. Limits are kept tiny so accepted inputs stay cheap
// and iterations go to the decoder, which is the external trust
// boundary under test.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"pixels":[[1,2,null,4,5,6,7,8,9,10,11,12]],"history":8}`))
	f.Add([]byte(`{"pixels":[[1,2],[3]],"history":1}`))
	f.Add([]byte(`{"pixels":[],"history":4}`))
	f.Add([]byte(`{"series":[1,2,3],"history":2}`))
	f.Add([]byte(`{"pixels":[[1,2,3]],"history":2,"n":99}`))
	f.Add([]byte(`{"pixels":[[1e309]],"history":1}`))
	f.Add([]byte(`{"pixels":[[null,null,null,null]],"history":2,"harmonics":0}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	srv := mustServer(f, Config{
		MaxBodyBytes:   1 << 16,
		MaxBatchPixels: 4,
		MaxSeriesLen:   64,
		TraceDepth:     -1,
		Workers:        1,
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		if rec.Code >= 500 {
			t.Fatalf("5xx (%d) on client input %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		var payload any
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("status %d with non-JSON body %q", rec.Code, rec.Body.Bytes())
		}
	})
}

// stockBatch is the /v1/batch decode as it was before the flat path:
// the stock decoder, then the framing checks and the pack step. It is
// the oracle FuzzBatchFlatDecode holds decodeBatchBody+packBatch to.
func stockBatch(cfg Config, raw []byte) (DetectRequest, []float64, *apiError) {
	req, err := decodeStock(raw)
	if err != nil {
		return req, nil, errf(http.StatusBadRequest, CodeInvalidJSON, "bad request body: %v", err)
	}
	if len(req.Pixels) == 0 {
		return req, nil, errf(http.StatusBadRequest, CodeInvalidArgument, "pixels is required")
	}
	if len(req.Pixels) > cfg.MaxBatchPixels {
		return req, nil, errf(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"batch has %d pixels, limit is %d; split the request", len(req.Pixels), cfg.MaxBatchPixels)
	}
	n := len(req.Pixels[0])
	if req.N != nil {
		n = *req.N
	}
	if n > cfg.MaxSeriesLen {
		return req, nil, errf(http.StatusBadRequest, CodeInvalidArgument,
			"series has %d dates, limit is %d", n, cfg.MaxSeriesLen)
	}
	flat := make([]float64, len(req.Pixels)*n)
	for i, p := range req.Pixels {
		if len(p) != n {
			return req, nil, errf(http.StatusBadRequest, CodeLengthMismatch,
				"pixel %d has %d dates, expected %d", i, len(p), n)
		}
		copy(flat[i*n:(i+1)*n], p)
	}
	return req, flat, nil
}

// checkBatchDecode decodes body with the chunk count forced and fails
// unless the result matches stockBatch: the same accept/reject decision,
// status, code and message, the same options, and bit-identical packed
// values. It reports whether the flat path (not the fallback) decoded.
func checkBatchDecode(t *testing.T, srv *Server, body []byte, chunks int) bool {
	t.Helper()
	wantReq, wantFlat, wantErr := stockBatch(srv.cfg, body)
	var flat bool
	in, gotErr := srv.decodeBatchBody(context.Background(), body, chunks)
	if gotErr == nil {
		flat = in.flat != nil
		gotErr = srv.packBatch(in)
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("chunks=%d %q: error %v, stock %v", chunks, body, gotErr, wantErr)
	}
	if wantErr != nil {
		if *gotErr != *wantErr {
			t.Fatalf("chunks=%d %q: error %+v, stock %+v", chunks, body, *gotErr, *wantErr)
		}
		return flat
	}
	defer srv.putPackBuf(in.flat)
	if len(in.flat) != len(wantFlat) || in.m != len(wantReq.Pixels) {
		t.Fatalf("chunks=%d %q: %d×%d values, stock %d pixels, %d values",
			chunks, body, in.m, in.n, len(wantReq.Pixels), len(wantFlat))
	}
	for i := range wantFlat {
		if math.Float64bits(in.flat[i]) != math.Float64bits(wantFlat[i]) {
			t.Fatalf("chunks=%d %q: value %d is %#x, stock %#x", chunks, body, i,
				math.Float64bits(in.flat[i]), math.Float64bits(wantFlat[i]))
		}
	}
	wantReq.Pixels = nil
	if got, want := normalizeReq(in.req), normalizeReq(wantReq); !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks=%d %q: options\n got %+v\nwant %+v", chunks, body, got, want)
	}
	return flat
}

// batchFuzzConfig keeps limits tiny so the limit checks are reachable.
var batchFuzzConfig = Config{
	MaxBodyBytes:   1 << 16,
	MaxBatchPixels: 4,
	MaxSeriesLen:   64,
	TraceDepth:     -1,
	Workers:        2,
}

// batchDecodeSeeds reach every flat-path branch: plain rows, seams
// inside whitespace, nulls, every fallback trigger, and the numbers at
// the exact path's edges. flat marks the bodies the flat path decodes;
// every other one must fall back to the stock decoder.
var batchDecodeSeeds = []struct {
	body string
	flat bool
}{
	{`{"pixels":[[1,2,null,4],[5,6,7,8],[9,null,-0,1e3]],"history":2}`, true},
	{`{"history":2,"pixels":[ [ 1 , 2 ] , [ 3 , 4 ] ,[5,6] ,[7 ,8]] ,"n":2}`, true},
	{"{\"pixels\":[\n[0.1234,-12.3456],\n\t[9007199254740993,0.0000000000000000000001]\n],\"history\":1}", true},
	{`{"pixels":[[1e22,1e23,5e-324,-0.0]],"history":1,"level":0.01,"noTrend":true}`, true},
	{`{"pixels":[[1.5,2.25],[3.125,4]],"history":1,"n":2}`, true},
	{`{"n":2,"pixels":[[1,2],[3,4]],"history":1}`, true},         // declared n matches
	{`{"pixels":[[1,2]],"series":[3,null],"history":1}`, true},   // series rides along
	{`{"pixels":[[1,2]],"history":1} `, true},                    // trailing space
	{`{"pixels":[[1,2],[3,4]]}`, true},                           // no history
	{`{"pixels":[[1,2],[3]],"history":1}`, false},                // ragged
	{`{"pixels":[[1,2],[3,4,5]],"history":1}`, false},            // ragged, long
	{`{"pixels":[[1,[2]],[3,4]],"history":1}`, false},            // nested
	{`{"pixels":[[1,2]],"pixels":[[3,4]],"history":1}`, false},   // duplicate key
	{`{"pixels":[[1,2],[3,4]],"n":3,"history":1}`, false},        // declared n differs
	{`{"pixels":[[1],[2],[3],[4],[5]],"history":1}`, false},      // too many pixels
	{`{"pixels":[[1,2]],"n":99,"history":1}`, false},             // n over the limit
	{`{"pixel\u0073":[[1,2]],"history":1}`, false},               // escaped key
	{`{"pixels":[[1e309,2]],"history":1}`, false},                // out of range
	{`{"pixels":[[1,2,]],"history":1}`, false},                   // trailing comma
	{`{"pixels":[[],[]],"history":1}`, false},                    // empty rows
	{`{"pixels":[[1,2],null],"history":1}`, false},               // null row
	{`{"pixels":[],"history":1}`, false},                         // no pixels
	{`{"pixels":null,"history":1}`, false},                       // null pixels
	{`{"pixels":[["1",2]],"history":1}`, false},                  // string value
	{`{"pixels":[[1,2] [3,4]],"history":1}`, false},              // missing comma
	{`{"pixels":[[01,2]],"history":1}`, false},                   // leading zero
	{`{"pixels":[[1,2]],"history":1,"bogus":0}`, false},          // unknown field
	{`{"pixels":[[nul,2]],"history":1}`, false},                  // bad literal
	{`{"pixels":[[1,2]],"history":1.5}`, false},                  // non-int history
	{`{"pixels":[[1,2],[3,4]],"history":1}{"history":2}`, false}, // trailing value
	{`{"pixels":[[1,2],[3,4]],"history":1,"Level":0.5}`, false},  // case-folded key
	{`{"pixels":[[1,2],[3,4]]],"history":1}`, false},             // extra bracket
}

// FuzzBatchFlatDecode holds the flat /v1/batch decoder, with its chunk
// count forced to 1–4 so even tiny bodies cross chunk seams, to the
// stock decoder plus the pack step (stockBatch): the same accept/reject
// decision, status code and error text, and bit-identical values.
func FuzzBatchFlatDecode(f *testing.F) {
	for i, seed := range batchDecodeSeeds {
		f.Add([]byte(seed.body), uint8(i))
	}
	srv := mustServer(f, batchFuzzConfig)
	f.Fuzz(func(t *testing.T, body []byte, chunks uint8) {
		checkBatchDecode(t, srv, body, 1+int(chunks%4))
	})
}

// TestBatchFlatDecode runs the fuzz seeds at every forced chunk count
// and the automatic one, and checks which path decodes each.
func TestBatchFlatDecode(t *testing.T) {
	srv := mustServer(t, batchFuzzConfig)
	for _, seed := range batchDecodeSeeds {
		for chunks := 0; chunks <= 4; chunks++ {
			if flat := checkBatchDecode(t, srv, []byte(seed.body), chunks); flat != seed.flat {
				t.Fatalf("chunks=%d %q: flat path %v, want %v", chunks, seed.body, flat, seed.flat)
			}
		}
	}
}

// TestBatchFlatDecodeSplitsLargeBodies: a body past two flatGrain is cut
// into chunks decoded on the scheduler, with values identical to the
// stock path; a cut inside a row that is malformed still falls back.
func TestBatchFlatDecodeSplitsLargeBodies(t *testing.T) {
	srv := mustServer(t, Config{TraceDepth: -1, Workers: 2})
	rng := rand.New(rand.NewSource(12))
	body, err := json.Marshal(batchBody(rng, 3000, 120))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 2*flatGrain {
		t.Fatalf("body of %d bytes does not split", len(body))
	}
	if !checkBatchDecode(t, srv, body, 0) {
		t.Fatal("large well-formed body fell back to the stock decoder")
	}
	// A ragged row near the end must reject in whichever chunk holds it.
	i := bytes.LastIndex(body, []byte("],["))
	bad := append(append(append([]byte(nil), body[:i]...), ",0"...), body[i:]...)
	if checkBatchDecode(t, srv, bad, 0) {
		t.Fatal("a ragged large body decoded flat")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, apiErr := srv.decodeBatchBody(ctx, body, 0); apiErr == nil || apiErr.Code != CodeCanceled {
		t.Fatalf("cancelled decode: %v", apiErr)
	}
}
