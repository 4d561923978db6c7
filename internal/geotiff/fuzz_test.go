package geotiff

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// allocPerInputByte is the allocation budget per input byte Read may
// spend before failing on a hostile input.
const allocPerInputByte = 64

// patch overwrites the count and value of one IFD entry.
type patch struct {
	tag          uint16
	count, value uint32
}

// hostileTIFF writes a valid 4×4 image whose pixels carry the raw bits
// px (the strip sits at offset 8, the description at 72), then applies
// the patches to its IFD.
func hostileTIFF(px []uint32, patches ...patch) []byte {
	im, _ := NewImage(4, 4)
	for i, bits := range px {
		im.Pixels[i] = math.Float32frombits(bits)
	}
	im.Description = "2015-06-01"
	var buf bytes.Buffer
	_ = im.Write(&buf)
	b, le := buf.Bytes(), binary.LittleEndian
	ifd := int(le.Uint32(b[4:]))
	for e := ifd + 2; e < ifd+2+12*int(le.Uint16(b[ifd:])); e += 12 {
		for _, p := range patches {
			if le.Uint16(b[e:]) == p.tag {
				le.PutUint32(b[e+4:], p.count)
				le.PutUint32(b[e+8:], p.value)
			}
		}
	}
	return b
}

var hostileTIFFs = []struct {
	name string
	data []byte
}{
	{"4096x4096 image over a 64 B strip",
		hostileTIFF(nil, patch{tagImageWidth, 1, 4096}, patch{tagImageLength, 1, 4096})},
	{"64 MiB strip", hostileTIFF(nil, patch{tagStripByteCounts, 1, 1 << 26})},
	{"64 MiB description", hostileTIFF(nil, patch{tagImageDescription, 1 << 26, 72})},
	{"2^20 strip offsets", hostileTIFF(nil, patch{tagStripOffsets, 1 << 20, 8})},
	// Eight strip offsets (pixels 0-7) and lengths (pixels 8-15) name
	// the same 200 bytes: they sum to the 1600 B a 20x20 image needs,
	// but the file is shorter than that.
	{"overlapping strips",
		hostileTIFF([]uint32{8, 8, 8, 8, 8, 8, 8, 8, 200, 200, 200, 200, 200, 200, 200, 200},
			patch{tagStripOffsets, 8, 8}, patch{tagStripByteCounts, 8, 40},
			patch{tagImageWidth, 1, 20}, patch{tagImageLength, 1, 20})},
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

// TestReadHostileSizesBoundedAlloc: size fields naming bytes the input
// does not hold must fail having allocated in proportion to the input,
// not to the sizes the fields declare.
func TestReadHostileSizesBoundedAlloc(t *testing.T) {
	for _, tc := range hostileTIFFs {
		var err error
		got := allocated(func() { _, err = Read(bytes.NewReader(tc.data)) })
		if err == nil {
			t.Errorf("%s: read without error", tc.name)
		}
		if limit := uint64(allocPerInputByte * len(tc.data)); got > limit {
			t.Errorf("%s: allocated %d B for a %d B input (limit %d)", tc.name, got, len(tc.data), limit)
		}
	}
}

// FuzzReadGeoTIFF feeds arbitrary bytes to Read: it must never panic,
// and an image it accepts must hold exactly width·height pixels and
// survive a Write/Read round trip unchanged.
func FuzzReadGeoTIFF(f *testing.F) {
	f.Add(hostileTIFF(nil))
	for _, tc := range hostileTIFFs {
		f.Add(tc.data)
	}
	f.Add([]byte("not a tiff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(im.Pixels) != im.Width*im.Height {
			t.Fatalf("%d pixels for %dx%d", len(im.Pixels), im.Width, im.Height)
		}
		var buf bytes.Buffer
		if err := im.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written image: %v", err)
		}
		if again.Description != im.Description {
			t.Fatalf("description %q != %q after round trip", again.Description, im.Description)
		}
		for i, v := range im.Pixels {
			if w := again.Pixels[i]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("pixel %d: %v != %v after round trip", i, v, w)
			}
		}
	})
}
