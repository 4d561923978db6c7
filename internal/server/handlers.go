package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"bfast/internal/autotune"
	"bfast/internal/coalesce"
	"bfast/internal/core"
	"bfast/internal/obs"
	"bfast/internal/stats"
)

// DetectRequest is the request body of /v1/detect and /v1/trace; /v1/batch
// uses the same options with Pixels instead of Series.
type DetectRequest struct {
	// Series is the pixel time series; null = missing observation.
	Series Series `json:"series,omitempty"`
	// Pixels carries many series for /v1/batch.
	Pixels []Series `json:"pixels,omitempty"`
	// N optionally declares the series length; when present it must match
	// the data actually sent (every pixel row for /v1/batch), or the
	// request fails with length_mismatch. Lets generated clients assert
	// their framing survived serialization.
	N *int `json:"n,omitempty"`
	// History is n, the history length in dates (required).
	History int `json:"history"`
	// Harmonics is k (default 3).
	Harmonics *int `json:"harmonics,omitempty"`
	// Frequency is f (default 23).
	Frequency *float64 `json:"frequency,omitempty"`
	// HFrac is the MOSUM window fraction (default 0.25).
	HFrac *float64 `json:"hfrac,omitempty"`
	// Level is the significance level (default 0.05).
	Level *float64 `json:"level,omitempty"`
	// Process is "mosum" (default) or "cusum".
	Process string `json:"process,omitempty"`
	// NoTrend drops the linear-trend regressor.
	NoTrend bool `json:"noTrend,omitempty"`
}

// DetectResponse is the per-pixel result.
type DetectResponse struct {
	Status       string   `json:"status"`
	BreakIndex   int      `json:"breakIndex"`
	Magnitude    *float64 `json:"magnitude,omitempty"`
	Sigma        *float64 `json:"sigma,omitempty"`
	ValidHistory int      `json:"validHistory"`
	Valid        int      `json:"valid"`
}

// TraceResponse is the /v1/trace body.
type TraceResponse struct {
	Status   string    `json:"status"`
	Dates    []int     `json:"dates,omitempty"`
	Process  []float64 `json:"process,omitempty"`
	Boundary []float64 `json:"boundary,omitempty"`
	BreakAt  int       `json:"breakAt"`
}

func (r *DetectRequest) options() core.Options {
	opt := core.DefaultOptions(r.History)
	if r.Harmonics != nil {
		opt.Harmonics = *r.Harmonics
	}
	if r.Frequency != nil {
		opt.Frequency = *r.Frequency
	}
	if r.HFrac != nil {
		opt.HFrac = *r.HFrac
	}
	if r.Level != nil {
		opt.Level = *r.Level
	}
	if r.Process == "cusum" {
		opt.Process = stats.ProcessCUSUM
	}
	opt.NoTrend = r.NoTrend
	return opt
}

// maxPooledBody bounds what readBody keeps for reuse — one outsized
// request must not pin its buffer in the pool forever.
const maxPooledBody = 1 << 20

// readBody drains the request body into a pooled buffer. A declared
// Content-Length presizes it (up to maxPooledBody, so a client cannot
// make the server allocate what it never sends) and clamps every later
// growth; growth doubles, so the buffer never holds more than twice the
// bytes received. Decoding copies every value out of the raw bytes, so
// the buffer goes back to the pool as soon as decoding returns.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	size, limit := 512, 0
	if r.ContentLength > 0 {
		limit = int(min(r.ContentLength, s.cfg.MaxBodyBytes)) + 1
		size = min(limit, maxPooledBody)
	}
	var buf []byte
	if v := s.bodyPool.Get(); v != nil {
		buf = (*v.(*[]byte))[:0]
	}
	if cap(buf) < size {
		s.putBodyBuf(buf)
		buf = make([]byte, 0, size)
	}
	src := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			c := 2 * cap(buf)
			if limit > cap(buf) {
				c = min(c, limit)
			}
			grown := make([]byte, len(buf), c)
			copy(grown, buf)
			s.putBodyBuf(buf)
			buf = grown
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Server) putBodyBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBody {
		return
	}
	s.bodyPool.Put(&b)
}

// getPackBuf returns a pooled buffer of exactly size values; putPackBuf
// recycles it. Detection never retains the pack buffer past its return
// (results carry their own storage, and the coalescer copies pixels out
// at enqueue), so handleBatch can recycle immediately.
func (s *Server) getPackBuf(size int) []float64 {
	if v := s.packPool.Get(); v != nil {
		if b := *v.(*[]float64); cap(b) >= size {
			return b[:size]
		}
	}
	return make([]float64, size)
}

func (s *Server) putPackBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	s.packPool.Put(&b)
}

// readRequestBody is readBody with read failures mapped to their API
// errors; the caller returns raw with putBodyBuf.
func (s *Server) readRequestBody(r *http.Request) ([]byte, *apiError) {
	raw, err := s.readBody(r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return raw, errf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return raw, errf(http.StatusBadRequest, CodeInvalidJSON, "bad request body: %v", err)
	}
	return raw, nil
}

// decodeRequest parses and bounds a single-series body. The decode span
// lands on the request's trace so oversized-JSON cost is visible next to
// kernel cost. Well-formed bodies take the single-scan fast path (see
// reqjson.go); everything else re-parses with the stock decoder so
// accept/reject behavior and error text never diverge from it.
func (s *Server) decodeRequest(r *http.Request) (*DetectRequest, *apiError) {
	_, sp := obs.StartSpan(r.Context(), "decode")
	sp.SetAttr("bytes", r.ContentLength)
	defer sp.End()
	raw, apiErr := s.readRequestBody(r)
	defer s.putBodyBuf(raw)
	if apiErr != nil {
		return nil, apiErr
	}
	if req, ok := parseDetectRequest(raw); ok {
		return &req, nil
	}
	req, err := stockDecode(raw)
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidJSON, "bad request body: %v", err)
	}
	return &req, nil
}

// stockDecode is the stock decoder every fast path falls back to.
func stockDecode(raw []byte) (DetectRequest, error) {
	var req DetectRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// batchInput is a decoded /v1/batch body: the options, and the pixels
// as an m×n row-major pack buffer from getPackBuf once packed.
type batchInput struct {
	req  DetectRequest
	flat []float64
	m, n int
}

// decodeBatch reads and decodes a /v1/batch body under the decode span.
func (s *Server) decodeBatch(r *http.Request) (*batchInput, *apiError) {
	ctx, sp := obs.StartSpan(r.Context(), "decode")
	sp.SetAttr("bytes", r.ContentLength)
	defer sp.End()
	raw, apiErr := s.readRequestBody(r)
	defer s.putBodyBuf(raw)
	if apiErr != nil {
		return nil, apiErr
	}
	in, apiErr := s.decodeBatchBody(ctx, raw, 0)
	sp.SetAttr("flat", in != nil && in.flat != nil)
	return in, apiErr
}

// decodeBatchBody decodes a /v1/batch body in one pass straight into the
// pack buffer: parseBatchRequest validates every field and locates the
// pixel rows, the batch limits are checked before the m·n allocation,
// and decodeRows parses the rows into the buffer (in parallel chunks for
// large bodies; chunks > 0 forces the chunk count, see decodeRows). On
// any deviation — a ragged row, nested arrays, a duplicate pixels key, a
// declared n that differs, a limit exceeded, an escaped key — it returns
// the buffer and decodes with the stock decoder instead, leaving flat
// nil so packBatch validates and packs Pixels as it always has: status
// codes and error text are the stock path's.
func (s *Server) decodeBatchBody(ctx context.Context, raw []byte, chunks int) (*batchInput, *apiError) {
	if req, rows, ok := parseBatchRequest(raw); ok && s.flatFits(&req, rows) {
		flat := s.getPackBuf(rows.m * rows.n)
		err := decodeRows(ctx, raw, rows, flat, s.cfg.Workers, chunks)
		if err == nil {
			return &batchInput{req: req, flat: flat, m: rows.m, n: rows.n}, nil
		}
		s.putPackBuf(flat)
		if err != errRows {
			return nil, ctxError(ctx, err)
		}
	}
	req, err := stockDecode(raw)
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidJSON, "bad request body: %v", err)
	}
	return &batchInput{req: req}, nil
}

// flatFits reports whether the located rows pass every check packBatch
// would run, so the flat path can never answer differently from it. The
// last check is a size sanity bound: m rows of n values take at least
// m·(2n+1) bytes, so a short body cannot claim a large buffer.
func (s *Server) flatFits(req *DetectRequest, rows batchRows) bool {
	return rows.m <= s.cfg.MaxBatchPixels && rows.n <= s.cfg.MaxSeriesLen &&
		(req.N == nil || *req.N == rows.n) &&
		rows.m*(2*rows.n+1) <= rows.hi-rows.lo+1
}

// packBatch completes a batchInput that the stock decoder produced:
// framing and limit checks, then the copy of Pixels into a pack buffer.
// A flat-decoded input is already packed. The caller recycles in.flat.
func (s *Server) packBatch(in *batchInput) *apiError {
	if in.flat != nil {
		return nil
	}
	req := &in.req
	if len(req.Pixels) == 0 {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "pixels is required")
	}
	if len(req.Pixels) > s.cfg.MaxBatchPixels {
		return errf(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"batch has %d pixels, limit is %d; split the request", len(req.Pixels), s.cfg.MaxBatchPixels)
	}
	n := len(req.Pixels[0])
	if req.N != nil {
		n = *req.N
	}
	if n > s.cfg.MaxSeriesLen {
		return errf(http.StatusBadRequest, CodeInvalidArgument,
			"series has %d dates, limit is %d", n, s.cfg.MaxSeriesLen)
	}
	m := len(req.Pixels)
	in.m = m
	flat := s.getPackBuf(m * n)
	for i, p := range req.Pixels {
		if len(p) != n {
			s.putPackBuf(flat)
			return errf(http.StatusBadRequest, CodeLengthMismatch,
				"pixel %d has %d dates, expected %d", i, len(p), n)
		}
		copy(flat[i*n:(i+1)*n], p)
	}
	in.flat, in.n = flat, n
	req.Pixels = nil
	return nil
}

// checkSeries validates a single-series request's framing: presence, the
// configured length cap, and the declared-n contract.
func (s *Server) checkSeries(req *DetectRequest) *apiError {
	if len(req.Series) == 0 {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "series is required")
	}
	if len(req.Series) > s.cfg.MaxSeriesLen {
		return errf(http.StatusBadRequest, CodeInvalidArgument,
			"series has %d dates, limit is %d", len(req.Series), s.cfg.MaxSeriesLen)
	}
	if req.N != nil && *req.N != len(req.Series) {
		return errf(http.StatusBadRequest, CodeLengthMismatch,
			"declared n=%d but series has %d dates", *req.N, len(req.Series))
	}
	return nil
}

// appendResultJSON emits exactly the bytes encoding/json produces for
// resultJSON(res) — /v1/batch responses carry one object per pixel, and
// hand-building them skips a reflection walk per element on the hot
// serving path. resultJSON stays the schema's source of truth; the
// equivalence is pinned by TestAppendResultJSONMatchesEncoder.
func appendResultJSON(dst []byte, res core.Result) []byte {
	dst = append(dst, `{"status":"`...)
	dst = append(dst, res.Status.String()...)
	dst = append(dst, `","breakIndex":`...)
	dst = strconv.AppendInt(dst, int64(res.BreakIndex), 10)
	if res.Status == core.StatusOK {
		dst = append(dst, `,"magnitude":`...)
		dst = appendJSONFloat(dst, res.MosumMean)
		dst = append(dst, `,"sigma":`...)
		dst = appendJSONFloat(dst, res.Sigma)
	}
	dst = append(dst, `,"validHistory":`...)
	dst = strconv.AppendInt(dst, int64(res.ValidHistory), 10)
	dst = append(dst, `,"valid":`...)
	dst = strconv.AppendInt(dst, int64(res.Valid), 10)
	return append(dst, '}')
}

func resultJSON(res core.Result) DetectResponse {
	out := DetectResponse{
		Status:       res.Status.String(),
		BreakIndex:   res.BreakIndex,
		ValidHistory: res.ValidHistory,
		Valid:        res.Valid,
	}
	if res.Status == core.StatusOK {
		m, s := res.MosumMean, res.Sigma
		out.Magnitude, out.Sigma = &m, &s
	}
	return out
}

func (s *Server) handleDetect(r *http.Request, tr *obs.Trace) (any, *apiError) {
	req, apiErr := s.decodeRequest(r)
	if apiErr != nil {
		return nil, apiErr
	}
	if apiErr := s.checkSeries(req); apiErr != nil {
		return nil, apiErr
	}
	tr.Pixels = 1
	y := []float64(req.Series)
	opt := req.options()
	x, err := core.DesignFor(opt, len(y))
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	if err := r.Context().Err(); err != nil {
		return nil, ctxError(r.Context(), err)
	}
	_, sp := obs.StartSpan(r.Context(), "detect")
	res, err := core.Detect(y, x, opt)
	sp.End()
	if err != nil {
		return nil, ctxError(r.Context(), err)
	}
	return resultJSON(res), nil
}

func (s *Server) handleTrace(r *http.Request, tr *obs.Trace) (any, *apiError) {
	req, apiErr := s.decodeRequest(r)
	if apiErr != nil {
		return nil, apiErr
	}
	if apiErr := s.checkSeries(req); apiErr != nil {
		return nil, apiErr
	}
	tr.Pixels = 1
	y := []float64(req.Series)
	opt := req.options()
	x, err := core.DesignFor(opt, len(y))
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	if err := r.Context().Err(); err != nil {
		return nil, ctxError(r.Context(), err)
	}
	_, sp := obs.StartSpan(r.Context(), "trace")
	res, err := core.Trace(y, x, opt)
	sp.End()
	if err != nil {
		return nil, ctxError(r.Context(), err)
	}
	return TraceResponse{
		Status:   res.Status.String(),
		Dates:    res.Dates,
		Process:  res.Process,
		Boundary: res.Boundary,
		BreakAt:  res.BreakAt,
	}, nil
}

func (s *Server) handleBatch(r *http.Request, tr *obs.Trace) (any, *apiError) {
	// Announce the request to the coalescer before decoding: queues stay
	// open while any batch request is still on its way to enqueueing, so
	// concurrent small requests merge even though they never overlap
	// inside the batcher itself. Done is idempotent — the defer covers
	// every error return, Detect consumes the arrival on the happy path.
	var arr *coalesce.Arrival
	if s.batcher != nil {
		arr = s.batcher.Arrive()
		defer arr.Done()
	}
	in, apiErr := s.decodeBatch(r)
	if apiErr != nil {
		return nil, apiErr
	}
	_, sp := obs.StartSpan(r.Context(), "pack")
	apiErr = s.packBatch(in)
	sp.End()
	tr.Pixels = in.m
	if apiErr != nil {
		return nil, apiErr
	}
	defer s.putPackBuf(in.flat)
	req, flat, m, n := &in.req, in.flat, in.m, in.n
	// The batched strategies (paper organization, PR 2 tiling) replace
	// the per-pixel C-like baseline here; results are bit-identical
	// (pinned by the equivalence tests) and the kernel-phase spans light
	// up under this request's span tree.
	dctx, sp := obs.StartSpan(r.Context(), "detect")
	bcfg := core.BatchConfig{Workers: s.cfg.Workers, Autotune: s.cfg.Autotune}
	opt := req.options()
	// With Config.Autotune, the first batch of a given shape pays for a
	// sub-second sweep; later batches hit the in-process or on-disk
	// cache. Resolution failure falls back to the explicit defaults —
	// tuning is an optimization, never an availability risk — but the
	// cause should reach operators chasing why a host serves untuned.
	if resolved, rerr := autotune.Resolve(dctx, bcfg, n, opt); rerr == nil {
		bcfg = resolved
	} else {
		s.cfg.Logger.Debug("autotune resolution failed; serving with explicit defaults",
			"request_id", tr.RequestID, "endpoint", "batch", "err", rerr)
	}
	var results []core.Result
	var err error
	if s.batcher != nil {
		// Coalesced path: this request's pixels may ride a merged batch
		// with concurrent equivalent requests. The batcher's wait span
		// (child of the detect span above) records which flush they rode
		// in; results are bit-identical to the direct path.
		results, _, err = s.batcher.Detect(dctx, arr, flat, m, n, opt, bcfg)
	} else {
		var b *core.Batch
		if b, err = core.NewBatch(m, n, flat); err != nil {
			sp.End()
			return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		}
		results, err = core.DetectBatch(dctx, b, opt, bcfg)
	}
	sp.End()
	if err != nil {
		return nil, ctxError(r.Context(), err)
	}
	out := make([]byte, 0, 48+len(results)*96)
	out = append(out, '[')
	for i, res := range results {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendResultJSON(out, res)
	}
	out = append(out, ']')
	return json.RawMessage(out), nil
}
