package bloom

import (
	"fmt"
	"math"
	"math/bits"
)

// VLFL implements the variable-length-to-fixed-length run-length encoding of
// Section IV.D.2. The bit sequence of a cache signature is decomposed into
// run-lengths terminated either by R consecutive zeros (R = 2^l − 1) or by L
// consecutive zeros followed by a one (0 ≤ L < R); each run is emitted as a
// fixed-length codeword of l = log2(R+1) bits carrying the value L (or R for
// the all-zeros run). A trailing partial run of zeros is emitted as its
// length; the decoder stops at the signature size, so the phantom
// terminating one is never materialised.

// bitWriter packs codewords MSB-first.
type bitWriter struct {
	buf  []byte
	nbit int
}

func (w *bitWriter) write(value uint32, width int) {
	for i := width - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if value&(1<<i) != 0 {
			w.buf[w.nbit/8] |= 1 << (7 - w.nbit%8)
		}
		w.nbit++
	}
}

// bitReader unpacks codewords MSB-first.
type bitReader struct {
	buf  []byte
	nbit int
}

func (r *bitReader) read(width int) (uint32, error) {
	var v uint32
	for i := 0; i < width; i++ {
		if r.nbit >= len(r.buf)*8 {
			return 0, fmt.Errorf("bloom: vlfl stream truncated at bit %d", r.nbit)
		}
		v <<= 1
		if r.buf[r.nbit/8]&(1<<(7-r.nbit%8)) != 0 {
			v |= 1
		}
		r.nbit++
	}
	return v, nil
}

// codewordWidth returns l = log2(R+1) for a valid R = 2^l − 1.
func codewordWidth(r int) (int, error) {
	if r < 1 || (r+1)&r != 0 {
		return 0, fmt.Errorf("bloom: R = %d is not 2^l - 1", r)
	}
	return bits.TrailingZeros(uint(r + 1)), nil
}

// EncodeVLFL compresses the filter's bit string with run length bound R.
// It returns the encoded bytes and the encoded length in bits.
func EncodeVLFL(f *Filter, r int) ([]byte, int, error) {
	width, err := codewordWidth(r)
	if err != nil {
		return nil, 0, err
	}
	var w bitWriter
	run := 0
	for p := 0; p < f.M(); p++ {
		if f.Bit(p) {
			w.write(uint32(run), width)
			run = 0
			continue
		}
		run++
		if run == r {
			w.write(uint32(r), width)
			run = 0
		}
	}
	if run > 0 {
		w.write(uint32(run), width)
	}
	return w.buf, w.nbit, nil
}

// maxDecodeBits caps the signature size DecodeVLFL accepts: 2^24 bits
// (2 MiB), three orders of magnitude above Table II's σ = 10000. A stream
// and its m arrive from a peer, so a corrupt m must not allocate without
// bound.
const maxDecodeBits = 1 << 24

// DecodeVLFL reconstructs a filter of m bits and k hashes from a VLFL
// stream encoded with run bound R. It rejects m above 2^24 bits and, before
// allocating, any stream too short to cover m bits.
func DecodeVLFL(data []byte, m, k, r int) (*Filter, error) {
	width, err := codewordWidth(r)
	if err != nil {
		return nil, err
	}
	if m > maxDecodeBits {
		return nil, fmt.Errorf("bloom: vlfl signature of %d bits exceeds the %d-bit limit", m, maxDecodeBits)
	}
	// A codeword covers at most R bits, and at most 2^32 when codewords
	// are wider than the uint32 they decode to.
	if span := min(int64(r), 1<<32); m > 0 && (int64(m)+span-1)/span*int64(width) > 8*int64(len(data)) {
		return nil, fmt.Errorf("bloom: vlfl stream of %d bits cannot cover %d signature bits", 8*len(data), m)
	}
	f, err := NewFilter(m, k)
	if err != nil {
		return nil, err
	}
	reader := bitReader{buf: data}
	pos := 0
	for pos < m {
		code, err := reader.read(width)
		if err != nil {
			return nil, err
		}
		if int(code) > r {
			return nil, fmt.Errorf("bloom: vlfl codeword %d exceeds R %d", code, r)
		}
		pos += int(code)
		if pos > m {
			return nil, fmt.Errorf("bloom: vlfl run overruns signature (%d > %d)", pos, m)
		}
		if int(code) == r {
			continue // all-zeros run, no terminating one
		}
		if pos == m {
			break // trailing partial run of zeros
		}
		f.setBit(pos)
		pos++
	}
	return f, nil
}

// ZeroProbability returns φ = (1 − 1/m)^(nk), the probability that a given
// signature bit is zero after n insertions.
func ZeroProbability(n, m, k int) float64 {
	if m <= 0 {
		return 0
	}
	return math.Pow(1-1/float64(m), float64(n*k))
}

// expectedSymbolLength returns η(R) = (1 − φ^R) / (1 − φ), the expected
// number of signature bits consumed per codeword.
func expectedSymbolLength(phi float64, r int) float64 {
	if phi >= 1 {
		return float64(r)
	}
	if phi <= 0 {
		return 1
	}
	return (1 - math.Pow(phi, float64(r))) / (1 - phi)
}

// FindOptimalR implements Algorithm 4: search over R = 2^i − 1 for the run
// bound minimising the expected compressed signature size
// σ' = σ · l / η(R) for a cache of n items, signature of m bits and k
// hashes. The search stops at the first i that no longer improves.
func FindOptimalR(n, m, k int) int {
	phi := ZeroProbability(n, m, k)
	minSize := math.Inf(1)
	best := 1
	for i := 1; i <= 30; i++ {
		r := 1<<i - 1
		eta := expectedSymbolLength(phi, r)
		if float64(i) > eta {
			break // codewords longer than the runs they encode
		}
		size := float64(m) * float64(i) / eta
		if size < minSize {
			minSize = size
			best = r
		} else {
			break
		}
	}
	return best
}

// ShouldCompress reports whether VLFL encoding is expected to shrink the
// signature — the local decision of Section IV.D.2: compress iff
// log2(R+1) < η(R) for the optimal R — and returns that R.
func ShouldCompress(n, m, k int) (bool, int) {
	r := FindOptimalR(n, m, k)
	width, err := codewordWidth(r)
	if err != nil {
		return false, 1
	}
	phi := ZeroProbability(n, m, k)
	return float64(width) < expectedSymbolLength(phi, r), r
}

// ExpectedCompressedBits returns the expected VLFL-compressed size in bits
// for a cache of n items: σ' = σ · log2(R+1) / η.
func ExpectedCompressedBits(n, m, k int) int {
	r := FindOptimalR(n, m, k)
	width, err := codewordWidth(r)
	if err != nil {
		return m
	}
	phi := ZeroProbability(n, m, k)
	return int(math.Ceil(float64(m) * float64(width) / expectedSymbolLength(phi, r)))
}
