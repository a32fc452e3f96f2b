package bloom

import (
	"math"
	"testing"
)

// FuzzDecodeVLFL decodes arbitrary bytes under arbitrary (m, k, R). The
// decoder must return an error or a valid m-bit, k-hash filter, never
// panic, and never allocate past its 2^24-bit limit. A decoded filter must
// survive a re-encode and decode unchanged.
func FuzzDecodeVLFL(f *testing.F) {
	for _, r := range []int{1, 3, 7, 255} {
		sig, err := NewFilter(500, 3)
		if err != nil {
			f.Fatal(err)
		}
		for e := uint64(0); e < 20; e++ {
			sig.Add(e * 7919)
		}
		data, _, err := EncodeVLFL(sig, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 500, 3, r)
	}
	f.Add([]byte{}, 1, 1, 1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, math.MaxInt, 2, 1<<31-1)
	f.Add([]byte{0x00}, 1<<24, 2, math.MaxInt)
	f.Add([]byte{0x80}, -5, 0, 6)

	f.Fuzz(func(t *testing.T, data []byte, m, k, r int) {
		got, err := DecodeVLFL(data, m, k, r)
		if err != nil {
			return
		}
		if got.M() != m || got.K() != k || m <= 0 || m > maxDecodeBits || k <= 0 {
			t.Fatalf("decoded filter m=%d k=%d for request m=%d k=%d", got.M(), got.K(), m, k)
		}
		if len(got.Words()) != (m+63)/64 {
			t.Fatalf("decoded filter holds %d words for %d bits", len(got.Words()), m)
		}
		if tail := m % 64; tail != 0 && got.Words()[len(got.Words())-1]>>tail != 0 {
			t.Fatalf("decoded filter sets bits past m=%d", m)
		}
		again, _, err := EncodeVLFL(got, r)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeVLFL(again, m, k, r)
		if err != nil {
			t.Fatalf("re-encoded filter does not decode: %v", err)
		}
		if !back.Equal(got) {
			t.Fatal("re-encode and decode changed the filter")
		}
	})
}
