package server

import (
	"errors"
	"strconv"
)

// errNumberSyntax reports a token that is not a JSON number.
var errNumberSyntax = errors.New("invalid JSON number")

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanNumber is the package's one JSON number routine. It validates the
// number starting at in[i] against the JSON grammar (strconv.ParseFloat
// alone is laxer: hex floats, leading '+', Inf, underscores) and builds
// its float64 in the same scan, returning the value and the index just
// past the number. The byte after the number must end the token (',',
// ']', '}', whitespace or end of input), so "1x" is a syntax error, not
// a 1 followed by garbage.
//
// A token with at most 19 significant digits, a mantissa ≤ 2^53, no
// exponent and at most 22 fraction digits is converted exactly:
// float64(mantissa) and 10^k are both exact, so one IEEE division is
// the correctly rounded value — bit-identical to strconv.ParseFloat,
// whose atof64exact takes the same path. Every other token goes to
// strconv.ParseFloat, whose range error (e.g. 1e309) is returned as is.
// Grammar errors return errNumberSyntax.
func scanNumber(in []byte, i int) (float64, int, error) {
	start := i
	neg := i < len(in) && in[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	nd, exp := 0, 0 // significant digits in mant; power of ten applied to it
	exact := true
	switch {
	case i < len(in) && in[i] == '0':
		i++
	case i < len(in) && in[i]-'1' < 9:
		for ; i < len(in) && in[i]-'0' < 10; i++ {
			if nd == 19 {
				exact = false
				continue
			}
			mant = mant*10 + uint64(in[i]-'0')
			nd++
		}
	default:
		return 0, i, errNumberSyntax
	}
	if i < len(in) && in[i] == '.' {
		i++
		if i >= len(in) || in[i]-'0' >= 10 {
			return 0, i, errNumberSyntax
		}
		for ; i < len(in) && in[i]-'0' < 10; i++ {
			d := in[i] - '0'
			switch {
			case nd == 0 && d == 0: // leading zero of 0.00x: not significant
				exp--
			case nd == 19:
				exact = false
			default:
				mant = mant*10 + uint64(d)
				nd++
				exp--
			}
		}
	}
	if i < len(in) && in[i]|0x20 == 'e' {
		exact = false
		i++
		if i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		if i >= len(in) || in[i]-'0' >= 10 {
			return 0, i, errNumberSyntax
		}
		for i < len(in) && in[i]-'0' < 10 {
			i++
		}
	}
	if i < len(in) && isTokenByte(in[i]) {
		return 0, i, errNumberSyntax
	}
	if exact && mant <= 1<<53 && exp >= -22 {
		f := float64(mant) / exactPow10[-exp]
		if neg {
			f = -f
		}
		return f, i, nil
	}
	f, err := strconv.ParseFloat(string(in[start:i]), 64)
	return f, i, err
}

func isTokenByte(c byte) bool {
	return !(c == ',' || c == ']' || c == '}' || isJSONSpace(c))
}
