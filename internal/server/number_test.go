package server

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkNumber asserts scanNumber agrees with strconv.ParseFloat on a
// token of valid JSON number grammar: same error-or-not, bit-identical
// value, and the whole token consumed.
func checkNumber(t *testing.T, tok string) {
	t.Helper()
	want, werr := strconv.ParseFloat(tok, 64)
	got, end, err := scanNumber([]byte(tok), 0)
	if err == errNumberSyntax {
		t.Fatalf("%q: valid JSON number rejected as syntax", tok)
	}
	if (err != nil) != (werr != nil) {
		t.Fatalf("%q: err %v, ParseFloat err %v", tok, err, werr)
	}
	if end != len(tok) {
		t.Fatalf("%q: consumed %d of %d bytes", tok, end, len(tok))
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: %v (%#x), ParseFloat %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestScanNumberExactPath(t *testing.T) {
	for _, tok := range []string{
		// mantissa around 2^53: exact up to it, ParseFloat past it
		"9007199254740991", "9007199254740992", "9007199254740993",
		"-9007199254740993", "900719925474099.3", "90071992547409.93",
		// 19 and 20 significant digits
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789",
		"0.12345678901234567890", "9999999999999999999", "99999999999999999999",
		// leading and trailing fraction zeros
		"0.000123", "0.0000000000000000000001", "0.00000000000000000000001",
		"0.000000000000000000000000000001", "1.5000000", "2.000000000000000000000000",
		"10.05", "0.10", "100.0000",
		// exp10 of ±22 and ±23
		"1e22", "1e-22", "1e23", "1e-23", "4.5e+22", "123e-23",
		"0.1234567890123456789012", "1234.567890123456789012",
		// signed zeros, subnormals, extremes
		"0", "-0", "-0.0", "0.0", "0e0", "-0e-5",
		"5e-324", "-5e-324", "2e-324", "1.7976931348623157e308", "4.9e-324",
		"1e309", "-1e309", "1e999", "1E400", "1e-400",
		// ordinary 4-decimal values, the serving workload's shape
		"0.1234", "-12.3456", "3.1416", "1", "-1", "0.5", "0.25",
	} {
		checkNumber(t, tok)
	}
	for _, tok := range []string{"1e309", "-1e309"} {
		if _, _, err := scanNumber([]byte(tok), 0); err == nil {
			t.Fatalf("%q must be rejected (out of float64 range)", tok)
		}
	}
}

func TestScanNumberGrammar(t *testing.T) {
	for _, tok := range []string{
		"", "-", "--1", "+1", "01", "-01", ".5", "1.", "1.e5", "1e", "1e+", "1e-",
		"Inf", "-Inf", "NaN", "0x1", "0x1p3", "1_000", "1x", "1.5.5", "1e5e5",
		"1e5.5", "null", "true", "\"1\"", "١",
	} {
		if _, _, err := scanNumber([]byte(tok), 0); err != errNumberSyntax {
			t.Fatalf("%q: err %v, want a syntax error", tok, err)
		}
	}
	// A delimiter ends the number; the scan stops in front of it.
	for _, c := range []string{"1,", "1]", "1}", "1 ", "1\n", "-2.5e3\t"} {
		v, end, err := scanNumber([]byte(c), 0)
		if err != nil || end != len(c)-1 {
			t.Fatalf("%q: %v, end %d, err %v", c, v, end, err)
		}
	}
}

// TestScanNumberRandomSweep compares bit-for-bit against ParseFloat over
// seeded random decimals, dense around the exact path's edges.
func TestScanNumberRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	digits := func(n int, lead bool) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			d := rng.Intn(10)
			if i == 0 && lead && d == 0 {
				d = 1 + rng.Intn(9)
			}
			b.WriteByte(byte('0' + d))
		}
		return b.String()
	}
	for i := 0; i < 200000; i++ {
		var tok string
		switch rng.Intn(4) {
		case 0: // a float64 printed with a random fraction width
			v := math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(24)-12))
			tok = strconv.FormatFloat(v, 'f', rng.Intn(24), 64)
		case 1: // a random decimal of 0–25 integer and 0–25 fraction digits
			tok = "0"
			if k := rng.Intn(26); k > 0 {
				tok = digits(k, true)
			}
			if k := rng.Intn(26); k > 0 {
				tok += "." + digits(k, false)
			}
		case 2: // a mantissa near 2^53 with the point anywhere
			m := strconv.FormatUint(1<<53-64+uint64(rng.Intn(128)), 10)
			p := rng.Intn(len(m))
			tok = m[:p+1] + "." + m[p+1:] + "0"
		default: // an exponent form
			tok = digits(1+rng.Intn(20), true) + "e" + strconv.Itoa(rng.Intn(700)-350)
		}
		if rng.Intn(2) == 0 {
			tok = "-" + tok
		}
		checkNumber(t, tok)
	}
}
