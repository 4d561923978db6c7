package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/obs"
)

// FitHTTPRequest is the body of POST /v1/fit: the per-pixel history
// matrix plus the option fields shared with /v1/detect.
type FitHTTPRequest struct {
	// Pixels is the scene's history: one row per pixel, each exactly
	// History dates long (null = missing).
	Pixels []Series `json:"pixels"`
	// Capacity is the designed series length — History plus every
	// monitoring date the session will ever observe. 0 defaults to
	// 2×History (one full monitoring period).
	Capacity int `json:"capacity,omitempty"`
	// History is n, the history length in dates (required).
	History int `json:"history"`
	// The remaining fields mirror DetectRequest's options.
	Harmonics *int     `json:"harmonics,omitempty"`
	Frequency *float64 `json:"frequency,omitempty"`
	HFrac     *float64 `json:"hfrac,omitempty"`
	Level     *float64 `json:"level,omitempty"`
	Process   string   `json:"process,omitempty"`
	NoTrend   bool     `json:"noTrend,omitempty"`
}

func (r *FitHTTPRequest) options() core.Options {
	return (&DetectRequest{
		History: r.History, Harmonics: r.Harmonics, Frequency: r.Frequency,
		HFrac: r.HFrac, Level: r.Level, Process: r.Process, NoTrend: r.NoTrend,
	}).options()
}

// ObserveHTTPRequest is the body of POST /v1/observe: one or more new
// acquisition dates for a session, date-major — each row carries the
// whole scene's values for one date, in fit pixel order.
type ObserveHTTPRequest struct {
	Session string   `json:"session"`
	Dates   []Series `json:"dates"`
}

// VerdictJSON is one pixel's standing on the wire. NaN process values
// (missing latest observation, unmonitored pixel) are omitted — JSON
// has no NaN.
type VerdictJSON struct {
	Status          string   `json:"status"`
	Break           bool     `json:"break"`
	BreakIndex      int      `json:"breakIndex"`
	Process         *float64 `json:"process,omitempty"`
	Magnitude       *float64 `json:"magnitude,omitempty"`
	ValidMonitoring int      `json:"validMonitoring"`
}

// ObserveResponse is the body of a successful /v1/observe.
type ObserveResponse struct {
	Session   string        `json:"session"`
	Dates     int           `json:"dates"`
	NextDate  int           `json:"next_date"`
	Remaining int           `json:"remaining"`
	Breaks    int           `json:"breaks"`
	Verdicts  []VerdictJSON `json:"verdicts"`
}

// SessionsResponse is the body of GET /v1/sessions without ?session=.
type SessionsResponse struct {
	Sessions []nrt.Info `json:"sessions"`
}

// decodeInto parses a request body into dst with the same limits and
// error taxonomy as decodeRequest, for the NRT bodies that do not share
// the DetectRequest shape.
func (s *Server) decodeInto(r *http.Request, dst any) *apiError {
	_, sp := obs.StartSpan(r.Context(), "decode")
	sp.SetAttr("bytes", r.ContentLength)
	defer sp.End()
	raw, apiErr := s.readRequestBody(r)
	defer s.putBodyBuf(raw)
	if apiErr != nil {
		return apiErr
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return errf(http.StatusBadRequest, CodeInvalidJSON, "bad request body: %v", err)
	}
	return nil
}

// nrtError maps manager errors onto the structured code set.
func nrtError(ctx context.Context, err error) *apiError {
	switch {
	case errors.Is(err, nrt.ErrNotFound):
		return errf(http.StatusNotFound, CodeNotFound, "%v", err)
	case errors.Is(err, nrt.ErrExhausted):
		return errf(http.StatusConflict, CodeSessionExhausted, "%v", err)
	default:
		return ctxError(ctx, err)
	}
}

func (s *Server) handleFit(r *http.Request, tr *obs.Trace) (any, *apiError) {
	if s.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, CodeUnavailable, "draining for shutdown")
	}
	var req FitHTTPRequest
	if apiErr := s.decodeInto(r, &req); apiErr != nil {
		return nil, apiErr
	}
	m := len(req.Pixels)
	if m == 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "pixels is required")
	}
	if m > s.cfg.MaxBatchPixels {
		return nil, errf(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"scene has %d pixels, limit is %d; split the scene", m, s.cfg.MaxBatchPixels)
	}
	if req.History <= 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "history must be positive")
	}
	if req.Capacity == 0 {
		req.Capacity = 2 * req.History
	}
	if req.Capacity > s.cfg.NRT.MaxCapacity {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument,
			"capacity %d exceeds the limit %d", req.Capacity, s.cfg.NRT.MaxCapacity)
	}
	if len(s.nrtMgr.List()) >= s.cfg.NRT.MaxSessions {
		return nil, errf(http.StatusTooManyRequests, CodeRateLimited,
			"session limit %d reached; delete a session first", s.cfg.NRT.MaxSessions)
	}
	tr.Pixels = m
	flat := s.getPackBuf(m * req.History)
	defer s.putPackBuf(flat)
	for i, p := range req.Pixels {
		if len(p) != req.History {
			return nil, errf(http.StatusBadRequest, CodeLengthMismatch,
				"pixel %d has %d dates, history is %d", i, len(p), req.History)
		}
		copy(flat[i*req.History:(i+1)*req.History], p)
	}
	sum, err := s.nrtMgr.Fit(r.Context(), nrt.FitRequest{
		Options: req.options(), Pixels: m, History: flat, Capacity: req.Capacity,
	})
	if err != nil {
		return nil, nrtError(r.Context(), err)
	}
	// Stitch the session onto the request's trace and root span: the
	// /v1/observe requests that follow carry the same ID, so logs and
	// traces of one session's lifetime correlate.
	tr.Session = sum.ID
	obs.SpanFromContext(r.Context()).SetAttr("session", sum.ID)
	return sum, nil
}

func (s *Server) handleObserve(r *http.Request, tr *obs.Trace) (any, *apiError) {
	if s.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, CodeUnavailable, "draining for shutdown")
	}
	var req ObserveHTTPRequest
	if apiErr := s.decodeInto(r, &req); apiErr != nil {
		return nil, apiErr
	}
	if req.Session == "" {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "session is required")
	}
	tr.Session = req.Session
	obs.SpanFromContext(r.Context()).SetAttr("session", req.Session)
	if len(req.Dates) == 0 {
		return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "dates is required")
	}
	info, err := s.nrtMgr.Get(req.Session)
	if err != nil {
		return nil, nrtError(r.Context(), err)
	}
	m := info.Pixels
	tr.Pixels = m
	flat := s.getPackBuf(len(req.Dates) * m)
	defer s.putPackBuf(flat)
	for d, row := range req.Dates {
		if len(row) != m {
			return nil, errf(http.StatusBadRequest, CodeLengthMismatch,
				"date %d has %d values, session %s has %d pixels", d, len(row), req.Session, m)
		}
		copy(flat[d*m:(d+1)*m], row)
	}
	res, err := s.nrtMgr.Observe(r.Context(), req.Session, flat, len(req.Dates))
	if err != nil {
		return nil, nrtError(r.Context(), err)
	}
	out := ObserveResponse{
		Session: res.ID, Dates: res.Dates, NextDate: res.NextDate,
		Remaining: res.Remaining, Breaks: res.Breaks,
		Verdicts: make([]VerdictJSON, len(res.Verdicts)),
	}
	for i, v := range res.Verdicts {
		out.Verdicts[i] = verdictJSON(v)
	}
	return out, nil
}

func verdictJSON(v nrt.Verdict) VerdictJSON {
	out := VerdictJSON{
		Status:          v.Status.String(),
		Break:           v.Break,
		BreakIndex:      v.BreakOffset,
		ValidMonitoring: v.ValidMon,
	}
	if v.Status == core.StatusOK {
		out.Process = jsonFloat(v.Process)
		out.Magnitude = jsonFloat(v.Mean)
	}
	return out
}

// jsonFloat returns &v, or nil for values JSON cannot carry.
func jsonFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// handleSessions serves GET /v1/sessions (list, or one session via
// ?session=) and DELETE /v1/sessions?session= (remove the session and
// its snapshot).
func (s *Server) handleSessions(r *http.Request, _ *obs.Trace) (any, *apiError) {
	id := r.URL.Query().Get("session")
	switch r.Method {
	case http.MethodGet:
		if id == "" {
			return SessionsResponse{Sessions: s.nrtMgr.List()}, nil
		}
		info, err := s.nrtMgr.Get(id)
		if err != nil {
			return nil, nrtError(r.Context(), err)
		}
		return info, nil
	default: // DELETE, per the endpoint's method allow list
		if id == "" {
			return nil, errf(http.StatusBadRequest, CodeInvalidArgument, "session query parameter is required")
		}
		if err := s.nrtMgr.Delete(r.Context(), id); err != nil {
			return nil, nrtError(r.Context(), err)
		}
		return map[string]string{"deleted": id}, nil
	}
}
