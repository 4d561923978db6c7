package cube

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocPerInputByte is the allocation budget per input byte a reader
// may spend before failing on a hostile input.
const allocPerInputByte = 64

// hostileCube is a valid header declaring w×h×dates followed by only
// payload bytes of data.
func hostileCube(w, h, dates uint32, payload int) []byte {
	b := append([]byte(nil), cubeMagic[:]...)
	for _, d := range []uint32{w, h, dates} {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return append(b, make([]byte, payload)...)
}

var hostileCubes = []struct {
	name string
	data []byte
}{
	{"256^3 header only", hostileCube(256, 256, 256, 0)},
	{"64x64x4096, 1000 B payload", hostileCube(64, 64, 4096, 1000)},
	{"one 4 MiB row, 100 B payload", hostileCube(1, 1, 1<<20, 100)},
	{"256^3, 64 KiB payload", hostileCube(256, 256, 256, 64<<10)},
}

// allocated returns the fewest heap bytes fn allocated over three runs
// (the minimum discounts allocations by unrelated goroutines).
func allocated(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestHostileHeaderBoundedAlloc: a header declaring far more data than
// follows must make Read and StreamChunks fail having allocated in
// proportion to the input, not to the declared dimensions.
func TestHostileHeaderBoundedAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.bfc")
	for _, tc := range hostileCubes {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		readers := map[string]func() error{
			"Read": func() error { _, err := Read(bytes.NewReader(tc.data)); return err },
			"StreamChunks": func() error {
				return StreamChunks(path, 1, func(Header, Chunk) error { return nil })
			},
		}
		for name, read := range readers {
			var err error
			got := allocated(func() { err = read() })
			if err == nil {
				t.Errorf("%s %s: truncated cube read without error", name, tc.name)
			}
			if limit := uint64(allocPerInputByte * len(tc.data)); got > limit {
				t.Errorf("%s %s: allocated %d B for a %d B input (limit %d)", name, tc.name, got, len(tc.data), limit)
			}
		}
	}
}

// FuzzReadCube feeds arbitrary bytes to Read: it must never panic, and a
// cube it accepts must hold exactly the declared values and survive a
// Write/Read round trip unchanged.
func FuzzReadCube(f *testing.F) {
	var valid bytes.Buffer
	c, _ := FromFlat(2, 1, 3, []float64{1, math.NaN(), -2.5, 0, 3, math.NaN()})
	if err := c.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, tc := range hostileCubes {
		if len(tc.data) <= 256 { // long seeds slow the fuzzer's minimization
			f.Add(tc.data)
		}
	}
	f.Add([]byte("not a cube"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(c.Values) != c.Width*c.Height*c.Dates {
			t.Fatalf("%d values for %dx%dx%d", len(c.Values), c.Width, c.Height, c.Dates)
		}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading a written cube: %v", err)
		}
		for i, v := range c.Values {
			if w := again.Values[i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("value %d: %v != %v after round trip", i, v, w)
			}
		}
	})
}
