package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"sync/atomic"

	"bfast/internal/sched"
)

// parseDetectRequest is a single-scan fast path for the request body.
// encoding/json costs three passes over every pixel array — a validity
// pre-scan, a skip pass to delimit the value for the custom unmarshaler,
// and the unmarshaler's own scan — which under small-request traffic
// makes body decode rival kernel time. This parser does one pass.
//
// It is deliberately strict: it accepts a body only when it is certain
// encoding/json would decode it into the identical struct — plain
// unescaped ASCII keys matching the wire names exactly, canonical JSON
// number/literal grammar, no trailing data. Anything else (escaped or
// case-folded keys, unknown fields, type mismatches, syntax errors)
// returns ok=false and the caller re-parses with the stock decoder, so
// every accept/reject decision and every error message stays exactly
// what it was before this fast path existed. A pixels field also
// returns ok=false: /v1/batch bodies go through parseBatchRequest.
func parseDetectRequest(data []byte) (req DetectRequest, ok bool) {
	p := reqParser{in: data}
	ok = p.object(&req)
	return req, ok
}

// batchRows locates the pixels of a /v1/batch body without decoding
// them: in[lo:hi] runs from the first row's '[' to the last row's ']'
// and holds m rows; n is the number of values the first row holds.
type batchRows struct {
	lo, hi int
	m, n   int
}

// parseBatchRequest is parseDetectRequest for /v1/batch: the same strict
// scan of every field, except that the pixels value is only located
// (see pixelRows) so decodeRows can parse it straight into the pack
// buffer. ok=false means the body must go to the stock decoder: any
// parseDetectRequest deviation, a missing, null, empty or duplicate
// pixels value, or rows that are not plain arrays.
func parseBatchRequest(data []byte) (req DetectRequest, rows batchRows, ok bool) {
	p := reqParser{in: data, batch: true}
	ok = p.object(&req) && p.rows.m > 0
	return req, p.rows, ok
}

func (p *reqParser) object(req *DetectRequest) bool {
	p.space()
	if !p.eat('{') {
		return false
	}
	for first := true; ; first = false {
		p.space()
		if p.eat('}') {
			break
		}
		if !first && !p.eat(',') {
			return false
		}
		p.space()
		key, kok := p.key()
		if !kok {
			return false
		}
		p.space()
		if !p.eat(':') {
			return false
		}
		p.space()
		if !p.field(req, key) {
			return false
		}
	}
	p.space()
	// The streaming decoder ignores trailing bytes after the first
	// value; defer to it rather than reason about them here.
	return p.pos == len(p.in)
}

type reqParser struct {
	in    []byte
	pos   int
	batch bool      // pixels are located into rows, not rejected
	rows  batchRows // the located pixels (batch mode)
}

func (p *reqParser) space() {
	for p.pos < len(p.in) && isJSONSpace(p.in[p.pos]) {
		p.pos++
	}
}

func (p *reqParser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// key reads a plain ASCII object key; escapes or exotic bytes bail to
// the stock decoder (which also handles its case-insensitive matching).
func (p *reqParser) key() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == '"' {
			k := p.in[start:p.pos]
			p.pos++
			return k, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		p.pos++
	}
	return nil, false
}

// token reads a run of literal/number bytes up to a delimiter.
func (p *reqParser) token() []byte {
	start := p.pos
	for p.pos < len(p.in) {
		switch c := p.in[p.pos]; {
		case c == ',' || c == ']' || c == '}' || isJSONSpace(c):
			return p.in[start:p.pos]
		default:
			p.pos++
		}
	}
	return p.in[start:p.pos]
}

func (p *reqParser) field(req *DetectRequest, key []byte) bool {
	switch string(key) {
	case "series":
		s, ok := p.series()
		if !ok {
			return false
		}
		req.Series = s
		return true
	case "pixels":
		return p.batch && p.pixelRows()
	case "n":
		return p.intField(&req.N)
	case "history":
		v, ok := p.intValue()
		if !ok {
			return false
		}
		req.History = v
		return true
	case "harmonics":
		return p.intField(&req.Harmonics)
	case "frequency":
		return p.floatField(&req.Frequency)
	case "hfrac":
		return p.floatField(&req.HFrac)
	case "level":
		return p.floatField(&req.Level)
	case "process":
		if p.peekNull() {
			req.Process = ""
			return true
		}
		s, ok := p.key() // same grammar: a plain ASCII string
		if !ok {
			return false
		}
		req.Process = string(s)
		return true
	case "noTrend":
		switch tok := p.token(); string(tok) {
		case "true":
			req.NoTrend = true
		case "false":
			req.NoTrend = false
		case "null": // stock decoder leaves the field untouched
		default:
			return false
		}
		return true
	default:
		// Unknown (or case-folded) field: the stock decoder owns the
		// DisallowUnknownFields / fold-matching behavior.
		return false
	}
}

// series parses one array of numbers/nulls, or a whole-value null.
func (p *reqParser) series() (Series, bool) {
	if p.peekNull() {
		return nil, true
	}
	if !p.eat('[') {
		return nil, false
	}
	out := make(Series, 0, 64)
	for {
		p.space()
		if p.eat(']') {
			return out, true
		}
		if len(out) > 0 {
			if !p.eat(',') {
				return nil, false
			}
			p.space()
		}
		if p.peekNull() {
			out = append(out, math.NaN())
			continue
		}
		v, end, err := scanNumber(p.in, p.pos)
		if err != nil {
			return nil, false
		}
		p.pos = end
		out = append(out, v)
	}
}

func (p *reqParser) peekNull() bool {
	if p.pos+4 <= len(p.in) && string(p.in[p.pos:p.pos+4]) == "null" {
		if p.pos+4 == len(p.in) || !isTokenByte(p.in[p.pos+4]) {
			p.pos += 4
			return true
		}
	}
	return false
}

// intValue parses a JSON integer the way encoding/json decodes into an
// int field: the literal must be digits only (no fraction or exponent)
// and fit; otherwise bail to the stock decoder's error.
func (p *reqParser) intValue() (int, bool) {
	start := p.pos
	_, end, err := scanNumber(p.in, p.pos)
	if err != nil {
		return 0, false
	}
	p.pos = end
	v, err := strconv.ParseInt(string(p.in[start:end]), 10, 64)
	if err != nil {
		return 0, false
	}
	return int(v), true
}

func (p *reqParser) intField(dst **int) bool {
	if p.peekNull() {
		*dst = nil
		return true
	}
	v, ok := p.intValue()
	if !ok {
		return false
	}
	*dst = &v
	return true
}

func (p *reqParser) floatField(dst **float64) bool {
	if p.peekNull() {
		*dst = nil
		return true
	}
	v, end, err := scanNumber(p.in, p.pos)
	if err != nil {
		return false
	}
	p.pos = end
	*dst = &v
	return true
}

// pixelRows locates a pixels value of one or more plain rows. Rows of
// numbers and nulls hold no brackets or strings, so each row ends at the
// first ']' after its '[' — found with a vectorized byte search instead
// of a per-value scan. The rows' contents are checked later, strictly,
// by fillRows; a nested array or string in a row fails there.
func (p *reqParser) pixelRows() bool {
	if p.rows.m > 0 || !p.eat('[') {
		return false // duplicate pixels key, null or not an array
	}
	p.space()
	rows := batchRows{lo: p.pos}
	for {
		if !p.eat('[') {
			return false
		}
		j := bytes.IndexByte(p.in[p.pos:], ']')
		if j < 0 {
			return false
		}
		if rows.m == 0 {
			rows.n = bytes.Count(p.in[p.pos:p.pos+j], []byte{','}) + 1
		}
		p.pos += j + 1
		rows.m++
		rows.hi = p.pos
		p.space()
		if p.eat(']') {
			p.rows = rows
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.space()
	}
}

// errRows reports pixel rows the flat decoder declines; the caller falls
// back to the stock decoder.
var errRows = errors.New("pixel rows need the stock decoder")

// flatGrain is the smallest pixels block, in bytes, that decodeRows
// splits: smaller blocks decode on the calling goroutine and allocate
// nothing.
const flatGrain = 256 << 10

// decodeRows parses the located rows of in straight into dst (rows.m
// rows of rows.n values, row-major). Blocks of at least two flatGrain
// are cut at row boundaries into up to four chunks per worker, decoded
// concurrently on the shared scheduler; chunks > 0 forces the chunk
// count instead (tests use it to put chunk seams inside tiny bodies).
// It returns errRows on any deviation from row(,row)* with exactly
// rows.n numbers or nulls per row, or ctx's error if the loop was cut.
func decodeRows(ctx context.Context, in []byte, rows batchRows, dst []float64, workers, chunks int) error {
	block := in[rows.lo:rows.hi]
	if chunks <= 0 {
		chunks = min(4*sched.Shared().Workers(workers, rows.m), len(block)/flatGrain)
	}
	if chunks = min(chunks, rows.m); chunks <= 1 {
		if !fillRows(block, false, rows.n, dst) {
			return errRows
		}
		return nil
	}
	// Chunk k is block[cut[k]:cut[k+1]] and holds rows [first[k],
	// first[k+1]); every cut but the outer two sits just past a ']',
	// and the ']' count before it is its row index.
	cut := make([]int, chunks+1)
	first := make([]int, chunks+1)
	for k := 1; k < chunks; k++ {
		cut[k] = len(block)
		if t := max(k*len(block)/chunks, cut[k-1]); t < len(block) {
			if j := bytes.IndexByte(block[t:], ']'); j >= 0 {
				cut[k] = t + j + 1
			}
		}
		first[k] = first[k-1] + bytes.Count(block[cut[k-1]:cut[k]], []byte{']'})
	}
	cut[chunks], first[chunks] = len(block), rows.m
	n := rows.n
	var bad atomic.Bool
	err := sched.Shared().ForEachCtx(ctx, chunks, workers, 1, func(_, lo, hi int) {
		for k := lo; k < hi && !bad.Load(); k++ {
			if cut[k] == cut[k+1] {
				continue
			}
			if !fillRows(block[cut[k]:cut[k+1]], k > 0, n, dst[first[k]*n:first[k+1]*n]) {
				bad.Store(true)
			}
		}
	})
	switch {
	case err != nil:
		return err
	case bad.Load():
		return errRows
	}
	return nil
}

// fillRows decodes in, which must be exactly row(,row)* — preceded by
// a ',' when lead is set — with n numbers or nulls per row, into dst,
// row-major. It reports false on any deviation, including a row count
// other than len(dst)/n.
func fillRows(in []byte, lead bool, n int, dst []float64) bool {
	p := reqParser{in: in}
	if lead {
		p.space()
		if !p.eat(',') {
			return false
		}
		p.space()
	}
	for r := n; ; r += n {
		if r > len(dst) || !p.eat('[') {
			return false
		}
		row := dst[r-n : r]
		for j := range row {
			p.space()
			if j > 0 {
				if !p.eat(',') {
					return false
				}
				p.space()
			}
			if p.peekNull() {
				row[j] = math.NaN()
				continue
			}
			v, end, err := scanNumber(p.in, p.pos)
			if err != nil {
				return false
			}
			row[j] = v
			p.pos = end
		}
		p.space()
		if !p.eat(']') {
			return false
		}
		if p.pos == len(p.in) {
			return r == len(dst)
		}
		p.space()
		if !p.eat(',') {
			return false
		}
		p.space()
	}
}
