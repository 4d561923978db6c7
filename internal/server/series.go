package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Series is a pixel time series on the wire: a JSON array of numbers
// with null for each missing observation, held in memory as []float64
// with NaN for missing — the kernels' native encoding.
//
// It implements the JSON conversions by hand because the stock encoding
// for "nullable float" ([]*float64) costs one heap pointer per present
// value plus a reflect-driven decode; under small-request traffic the
// body decode rivals kernel time and its garbage dominates GC load.
// Parsing number tokens directly into the final float64 representation
// removes both, and removes the pointer→NaN conversion pass the
// handlers used to run. The wire format is unchanged and the number
// grammar is validated exactly as encoding/json does (scanNumber: the
// JSON number syntax, values bit-identical to ParseFloat), so accepted
// and rejected bodies — and the decoded values — are identical to the
// previous encoding.
type Series []float64

// MarshalJSON renders NaN as null. Infinities are rejected the same way
// encoding/json rejects them for float64.
func (s Series) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	out := make([]byte, 0, 8*len(s)+2)
	out = append(out, '[')
	for i, v := range s {
		if i > 0 {
			out = append(out, ',')
		}
		switch {
		case math.IsNaN(v):
			out = append(out, "null"...)
		case math.IsInf(v, 0):
			return nil, fmt.Errorf("series: unsupported value %g", v)
		default:
			out = appendJSONFloat(out, v)
		}
	}
	return append(out, ']'), nil
}

// appendJSONFloat formats like encoding/json: shortest round-trip form,
// with the e-notation boundaries JSON readers expect.
func appendJSONFloat(out []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(out)
	out = strconv.AppendFloat(out, v, format, -1, 64)
	if format == 'e' {
		// Trim "e-06" style exponents to "e-6" as encoding/json does.
		if n := len(out); n >= start+4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
	}
	return out
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// UnmarshalJSON parses an array of numbers/nulls without reflection or
// per-value boxing. data is one complete JSON value as handed over by
// encoding/json's decoder.
func (s *Series) UnmarshalJSON(data []byte) error {
	d := bytes.TrimSpace(data)
	if bytes.Equal(d, []byte("null")) {
		*s = nil
		return nil
	}
	if len(d) < 2 || d[0] != '[' || d[len(d)-1] != ']' {
		return fmt.Errorf("series: expected an array of numbers or nulls")
	}
	body := d[1 : len(d)-1]
	// One comma per element past the first; pre-size for the common case
	// of a dense array.
	out := make(Series, 0, bytes.Count(body, []byte{','})+1)
	i, n := 0, len(body)
	for {
		for i < n && isJSONSpace(body[i]) {
			i++
		}
		if i >= n {
			if len(out) > 0 {
				return fmt.Errorf("series: trailing comma")
			}
			break // empty array
		}
		start := i
		for i < n && body[i] != ',' {
			i++
		}
		tok := body[start:i]
		for len(tok) > 0 && isJSONSpace(tok[len(tok)-1]) {
			tok = tok[:len(tok)-1]
		}
		hadComma := i < n
		if hadComma {
			i++
		}
		switch {
		case len(tok) == 0:
			return fmt.Errorf("series: missing value at element %d", len(out))
		case bytes.Equal(tok, []byte("null")):
			out = append(out, math.NaN())
		default:
			v, end, err := scanNumber(tok, 0)
			if err == errNumberSyntax || end != len(tok) {
				return fmt.Errorf("series: element %d: invalid value %q", len(out), tok)
			}
			if err != nil {
				return fmt.Errorf("series: element %d: %v", len(out), err)
			}
			out = append(out, v)
		}
		if !hadComma {
			break
		}
	}
	*s = out
	return nil
}
