package state

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
	"unsafe"
)

// resealed replaces the trailing checksum so a patched body reaches the
// range checks, the way a corrupted-but-resealed blob would.
func resealed(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crcTable))
}

// hugePixelCount is a small valid snapshot whose pixel count is patched
// to maxSnapshotPixels: 155 bytes that once made DecodeSession allocate
// 2^24 PixelSnapshots (1.8 GB) before reading the first one.
func hugePixelCount() []byte {
	data := EncodeSession(testSnapshot(0))
	binary.LittleEndian.PutUint64(data[len(data)-12:], maxSnapshotPixels)
	return resealed(data)
}

// decodeAlloc decodes data and reports the bytes the decode allocated.
func decodeAlloc(data []byte) (*SessionSnapshot, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := DecodeSession(data)
	runtime.ReadMemStats(&after)
	return s, err, after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding n input bytes may allocate: a pixel costs
// at least one input byte and a float eight, so the snapshot's memory
// is at most a PixelSnapshot per input byte, plus fixed overhead.
func allocBound(n int) uint64 {
	return uint64(n)*uint64(2*unsafe.Sizeof(PixelSnapshot{})) + 64<<10
}

func TestDecodeSessionBoundsAllocation(t *testing.T) {
	data := hugePixelCount()
	_, err, alloc := decodeAlloc(data)
	if err == nil {
		t.Fatal("a pixel count past the blob's end was accepted")
	}
	if alloc > allocBound(len(data)) {
		t.Fatalf("%d-byte snapshot allocated %d bytes (bound %d)", len(data), alloc, allocBound(len(data)))
	}
}

func TestDecodeSessionRejectsReservedBits(t *testing.T) {
	data := EncodeSession(testSnapshot(2))
	flags := append([]byte(nil), data...)
	flags[6] = 1
	if _, err := DecodeSession(resealed(flags)); err == nil {
		t.Fatal("nonzero flags accepted")
	}
	s := testSnapshot(0)
	s.Options.NoTrend = true
	data = EncodeSession(s)
	// NoTrend is the byte before Lambda and the pixel count.
	data[len(data)-4-8-8-1] = 2
	if _, err := DecodeSession(resealed(data)); err == nil {
		t.Fatal("no_trend byte 2 accepted")
	}
}

// FuzzDecodeSession feeds arbitrary blobs, most of them resealed so the
// body reaches the field checks. Decoding must not panic, must allocate
// at most allocBound(len(input)), and a blob it accepts must re-encode
// to exactly the same bytes.
func FuzzDecodeSession(f *testing.F) {
	f.Add(EncodeSession(testSnapshot(0)), false)
	f.Add(EncodeSession(testSnapshot(5)), false)
	f.Add(hugePixelCount(), false)
	f.Add(EncodeSession(testSnapshot(3))[:40], true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= frameMinLen {
			data = resealed(data)
		}
		s, err, alloc := decodeAlloc(data)
		if alloc > allocBound(len(data)) {
			t.Fatalf("%d-byte input allocated %d bytes (bound %d)", len(data), alloc, allocBound(len(data)))
		}
		if err != nil {
			return
		}
		if back := EncodeSession(s); !bytes.Equal(back, data) {
			t.Fatalf("round trip differs:\n in  %x\n out %x", data, back)
		}
	})
}
