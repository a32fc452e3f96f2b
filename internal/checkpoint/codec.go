// Package checkpoint implements resume at replication granularity: a
// canonical binary codec (the same value always produces the same bytes)
// for per-replication results, and an append-only crash-safe journal that
// records each completed replication of a sweep or chaos campaign so a
// killed run resumes without redoing finished work. A replication is
// never resumed mid-run; it is re-run from its seed.
//
// See DESIGN.md "Checkpoint format & compatibility" for the byte layout
// and the compatibility rules.
package checkpoint

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// Marshal encodes v into the canonical binary form: fixed-width big-endian
// integers (every int/uint kind widens to 8 bytes), IEEE-754 bit patterns
// for floats, length-prefixed strings and slices, struct fields in
// declaration order, and map entries sorted by their encoded key bytes.
// The encoding carries no field names: compatibility is governed by the
// journal's FormatVersion, which must be bumped whenever a serialized
// type changes shape.
func Marshal(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := encodeValue(&b, reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Unmarshal decodes canonical bytes produced by Marshal into v, which
// must be a non-nil pointer to a value of the identical type. Zero-length
// slices and maps decode as nil. Only canonical input is accepted — a
// flag byte other than 0 or 1, an integer or float that does not fit its
// field, or map keys out of order are errors — so every successful decode
// re-encodes to the input bytes. A slice or map length is checked against
// the bytes left before anything is allocated, so a corrupt length prefix
// is an error rather than an out-of-memory crash.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("checkpoint: unmarshal target must be a non-nil pointer, got %T", v)
	}
	r := &reader{data: data}
	if err := decodeValue(r, rv.Elem()); err != nil {
		return err
	}
	if r.off != len(data) {
		return fmt.Errorf("checkpoint: %d trailing bytes after decode", len(data)-r.off)
	}
	return nil
}

func putU32(b *bytes.Buffer, v uint32) {
	b.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func putU64(b *bytes.Buffer, v uint64) {
	b.Write([]byte{
		byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32),
		byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v),
	})
}

func encodeValue(b *bytes.Buffer, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putU64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		putU64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		putU64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		putU32(b, uint32(len(s)))
		b.WriteString(s)
	case reflect.Slice, reflect.Array:
		n := v.Len()
		putU32(b, uint32(n))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			// Byte payloads are stored raw instead of widened to 8 bytes.
			for i := 0; i < n; i++ {
				b.WriteByte(byte(v.Index(i).Uint()))
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if err := encodeValue(b, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		type kv struct {
			enc []byte
			key reflect.Value
		}
		encoded := make([]kv, 0, len(keys))
		for _, k := range keys {
			var kb bytes.Buffer
			if err := encodeValue(&kb, k); err != nil {
				return err
			}
			encoded = append(encoded, kv{enc: kb.Bytes(), key: k})
		}
		sort.Slice(encoded, func(i, j int) bool { return bytes.Compare(encoded[i].enc, encoded[j].enc) < 0 })
		putU32(b, uint32(len(encoded)))
		for _, e := range encoded {
			b.Write(e.enc)
			if err := encodeValue(b, v.MapIndex(e.key)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue // unexported fields carry no serializable state
			}
			if err := encodeValue(b, v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	case reflect.Ptr:
		if v.IsNil() {
			b.WriteByte(0)
			return nil
		}
		b.WriteByte(1)
		return encodeValue(b, v.Elem())
	default:
		return fmt.Errorf("checkpoint: cannot encode kind %v", v.Kind())
	}
	return nil
}

// reader is a cursor over the encoded bytes.
type reader struct {
	data []byte
	off  int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, fmt.Errorf("checkpoint: truncated input (need %d bytes at offset %d of %d)", n, r.off, len(r.data))
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
}

// flag reads a one-byte boolean or pointer-presence marker, which Marshal
// only ever writes as 0 or 1.
func (r *reader) flag() (bool, error) {
	b, err := r.take(1)
	if err != nil {
		return false, err
	}
	if b[0] > 1 {
		return false, fmt.Errorf("checkpoint: flag byte %#x at offset %d is not 0 or 1", b[0], r.off-1)
	}
	return b[0] == 1, nil
}

// count reads a slice or map length prefix and rejects one that the bytes
// left cannot hold at elemSize encoded bytes per element, before the
// caller allocates for it.
func (r *reader) count(elemSize uint64) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n) > uint64(len(r.data)-r.off)/max(elemSize, 1) {
		return 0, fmt.Errorf("checkpoint: length %d at offset %d exceeds the %d bytes left", n, r.off-4, len(r.data)-r.off)
	}
	return int(n), nil
}

// encodedSize is the fewest bytes Marshal writes for a value of type t.
func encodedSize(t reflect.Type) uint64 {
	switch t.Kind() {
	case reflect.Bool, reflect.Ptr:
		return 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return 8
	case reflect.String, reflect.Slice, reflect.Map:
		return 4
	case reflect.Array:
		return 4 + uint64(t.Len())*elemSize(t.Elem())
	case reflect.Struct:
		var n uint64
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath == "" {
				n += encodedSize(t.Field(i).Type)
			}
		}
		return n
	}
	return 0
}

// elemSize is the fewest bytes Marshal writes for one slice or array
// element of type t: byte elements are stored raw.
func elemSize(t reflect.Type) uint64 {
	if t.Kind() == reflect.Uint8 {
		return 1
	}
	return encodedSize(t)
}

func decodeValue(r *reader, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := r.flag()
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		if v.OverflowInt(int64(u)) {
			return fmt.Errorf("checkpoint: %d overflows %v", int64(u), v.Type())
		}
		v.SetInt(int64(u))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return fmt.Errorf("checkpoint: %d overflows %v", u, v.Type())
		}
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(u))
		if math.Float64bits(v.Float()) != u {
			return fmt.Errorf("checkpoint: float bits %#x do not fit %v", u, v.Type())
		}
	case reflect.String:
		n, err := r.u32()
		if err != nil {
			return err
		}
		b, err := r.take(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(b))
	case reflect.Slice:
		elem := v.Type().Elem()
		n, err := r.count(elemSize(elem))
		if err != nil {
			return err
		}
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		if err := decodeElems(r, s, elem); err != nil {
			return err
		}
		v.Set(s)
	case reflect.Array:
		n, err := r.u32()
		if err != nil {
			return err
		}
		if int(n) != v.Len() {
			return fmt.Errorf("checkpoint: array length %d does not match type %v", n, v.Type())
		}
		return decodeElems(r, v, v.Type().Elem())
	case reflect.Map:
		n, err := r.count(encodedSize(v.Type().Key()) + encodedSize(v.Type().Elem()))
		if err != nil {
			return err
		}
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		m := reflect.MakeMapWithSize(v.Type(), n)
		var prev []byte
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			start := r.off
			if err := decodeValue(r, k); err != nil {
				return err
			}
			// Marshal writes keys in strictly ascending encoded order.
			key := r.data[start:r.off]
			if i > 0 && bytes.Compare(prev, key) >= 0 {
				return fmt.Errorf("checkpoint: map key at offset %d is out of order or repeated", start)
			}
			prev = key
			e := reflect.New(v.Type().Elem()).Elem()
			if err := decodeValue(r, e); err != nil {
				return err
			}
			m.SetMapIndex(k, e)
			if m.Len() != i+1 {
				return fmt.Errorf("checkpoint: map key at offset %d is the same key as an earlier one", start)
			}
		}
		v.Set(m)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue
			}
			if err := decodeValue(r, v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	case reflect.Ptr:
		present, err := r.flag()
		if err != nil {
			return err
		}
		if !present {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		p := reflect.New(v.Type().Elem())
		if err := decodeValue(r, p.Elem()); err != nil {
			return err
		}
		v.Set(p)
	default:
		return fmt.Errorf("checkpoint: cannot decode kind %v", v.Kind())
	}
	return nil
}

// decodeElems fills the elements of slice or array v. Byte elements are
// stored raw, as Marshal writes them.
func decodeElems(r *reader, v reflect.Value, elem reflect.Type) error {
	if elem.Kind() == reflect.Uint8 {
		b, err := r.take(v.Len())
		if err != nil {
			return err
		}
		for i, c := range b {
			v.Index(i).SetUint(uint64(c))
		}
		return nil
	}
	for i := 0; i < v.Len(); i++ {
		if err := decodeValue(r, v.Index(i)); err != nil {
			return err
		}
	}
	return nil
}
