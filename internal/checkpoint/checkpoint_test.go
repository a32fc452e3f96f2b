package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

type inner struct {
	Name  string
	Ratio float64
}

type sample struct {
	ID       uint64
	Delay    time.Duration
	Flags    []bool
	Counts   map[string]uint32
	Nested   inner
	MaybePtr *inner
	Raw      []byte
	Grid     [3]int
	hidden   int // unexported: must be ignored by the codec
}

func sampleValue() sample {
	return sample{
		ID:     42,
		Delay:  1500 * time.Millisecond,
		Flags:  []bool{true, false, true},
		Counts: map[string]uint32{"b": 2, "a": 1, "c": 3},
		Nested: inner{Name: "tcg", Ratio: 0.375},
		MaybePtr: &inner{
			Name:  "peer",
			Ratio: -1.5,
		},
		Raw:    []byte{0xde, 0xad, 0xbe, 0xef},
		Grid:   [3]int{-1, 0, 7},
		hidden: 99,
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	in := sampleValue()
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out sample
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	in.hidden = 0 // not serialized
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestMarshalCanonical: equal values must encode to identical bytes, in
// particular regardless of map construction order — the property the
// resume byte-identity rests on.
func TestMarshalCanonical(t *testing.T) {
	a := sampleValue()
	b := sampleValue()
	b.Counts = map[string]uint32{}
	// Insert in a different order than sampleValue.
	for _, k := range []string{"c", "a", "b"} {
		b.Counts[k] = a.Counts[k]
	}
	ea, err := Marshal(a)
	if err != nil {
		t.Fatalf("marshal a: %v", err)
	}
	for i := 0; i < 20; i++ {
		eb, err := Marshal(b)
		if err != nil {
			t.Fatalf("marshal b: %v", err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatal("equal values encoded to different bytes")
		}
	}
}

func TestMarshalNilVsEmpty(t *testing.T) {
	type s struct {
		Xs []int
		M  map[string]int
		P  *inner
	}
	data, err := Marshal(s{Xs: []int{}, M: map[string]int{}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out s
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Xs != nil || out.M != nil || out.P != nil {
		t.Fatalf("zero-length containers should decode as nil, got %+v", out)
	}
}

func TestUnmarshalRejectsTrailingAndTruncated(t *testing.T) {
	data, err := Marshal(sampleValue())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out sample
	if err := Unmarshal(append(data, 0), &out); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := Unmarshal(data[:len(data)-1], &out); err == nil {
		t.Fatal("truncated input accepted")
	}
	if err := Unmarshal(data, out); err == nil {
		t.Fatal("non-pointer target accepted")
	}
}

// TestUnmarshalRejectsOversizedLength: a length prefix larger than the
// input can hold must be rejected before anything is allocated for it.
// The four bytes below claim 268M 32-byte elements (8 GiB).
func TestUnmarshalRejectsOversizedLength(t *testing.T) {
	type wide struct{ A, B, C, D int64 }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var xs []wide
	errSlice := Unmarshal([]byte{0x0f, 0xff, 0xff, 0xff}, &xs)
	var m map[string]wide
	errMap := Unmarshal([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, &m)
	runtime.ReadMemStats(&after)
	if errSlice == nil || errMap == nil {
		t.Fatalf("oversized length accepted: slice %v, map %v", errSlice, errMap)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a bogus length allocated %d bytes", grew)
	}
	// A length the input does hold still decodes, including raw bytes
	// that end the input.
	data, err := Marshal([]wide{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data, &xs); err != nil || len(xs) != 1 || xs[0].D != 4 {
		t.Fatalf("valid slice: %v %+v", err, xs)
	}
	raw := []byte{1, 2, 3, 4, 5}
	if data, err = Marshal(raw); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := Unmarshal(data, &got); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("trailing byte slice: %v %v", err, got)
	}
}

// TestUnmarshalRejectsNonCanonical: every input Marshal cannot produce is
// an error, so a successful decode always re-encodes to its input.
func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	zero := make([]byte, 8)
	negZero := append([]byte{0x80}, zero[1:]...)
	cases := []struct {
		name, want string
		data       []byte
		into       any
	}{
		{"bool byte 2", "not 0 or 1", []byte{2}, new(bool)},
		{"pointer flag 2", "not 0 or 1", append([]byte{2}, zero...), new(*int64)},
		{"int8 overflow", "overflows", []byte{0, 0, 0, 0, 0, 0, 1, 0}, new(int8)},
		{"uint16 overflow", "overflows", []byte{0, 0, 0, 0, 0, 1, 0, 0}, new(uint16)},
		{"float32 precision", "do not fit", []byte{0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a}, new(float32)},
		{"map keys descending", "out of order", []byte{0, 0, 0, 2, 0, 0, 0, 1, 'b', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 2}, new(map[string]int64)},
		{"map key repeated", "out of order", []byte{0, 0, 0, 2, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 2}, new(map[string]int64)},
		{"map keys equal as floats", "same key", bytes.Join([][]byte{{0, 0, 0, 2}, zero, {0}, negZero, {0}}, nil), new(map[float64]bool)},
	}
	for _, c := range cases {
		if err := Unmarshal(c.data, c.into); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// Byte arrays are stored raw, like byte slices.
	in := [3]byte{7, 8, 9}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out [3]byte
	if err := Unmarshal(data, &out); err != nil || out != in {
		t.Fatalf("byte array round trip: %v %v", err, out)
	}
}

func TestJournalAppendAndReload(t *testing.T) {
	dir := t.TempDir()
	meta := []byte("tool=test seed=1")
	j, err := OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	records := map[string][]byte{
		"done/0/0/1/0": []byte("alpha"),
		"done/0/1/1/0": []byte("beta"),
		"done/1/0/2/3": []byte("gamma"),
	}
	order := []string{"done/0/0/1/0", "done/0/1/1/0", "done/1/0/2/3"}
	for _, k := range order {
		if err := j.Append(k, records[k]); err != nil {
			t.Fatalf("append %s: %v", k, err)
		}
	}
	// Supersede one key: last record wins.
	if err := j.Append("done/0/0/1/0", []byte("alpha2")); err != nil {
		t.Fatalf("supersede: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, err := OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = j2.Close() }()
	if got := j2.Keys(); !reflect.DeepEqual(got, order) {
		t.Fatalf("keys %v, want %v", got, order)
	}
	if p, ok := j2.Lookup("done/0/0/1/0"); !ok || string(p) != "alpha2" {
		t.Fatalf("superseded key: %q %v", p, ok)
	}
	if p, ok := j2.Lookup("done/1/0/2/3"); !ok || string(p) != "gamma" {
		t.Fatalf("lookup: %q %v", p, ok)
	}
	// Appending after reload must keep working.
	if err := j2.Append("done/2/0/0/0", []byte("delta")); err != nil {
		t.Fatalf("append after reload: %v", err)
	}
}

func TestJournalMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, []byte("seed=1"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_ = j.Close()
	_, err = OpenJournal(dir, []byte("seed=2"))
	if err == nil || !strings.Contains(err.Error(), "meta mismatch") {
		t.Fatalf("want meta mismatch error, got %v", err)
	}
}

// TestJournalTornTail simulates a writer killed mid-append at every record
// boundary and at mid-record cut points: reload must recover exactly the
// records that were fully synced before the cut.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	meta := []byte("m")
	j, err := OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	for i, k := range keys {
		if err := j.Append(k, bytes.Repeat([]byte{byte(i)}, 10+i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	offsets := j.Offsets() // meta + 4 records
	path := j.Path()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	_ = j.Close()
	if len(offsets) != len(keys)+1 {
		t.Fatalf("offsets %v, want %d entries", offsets, len(keys)+1)
	}
	if offsets[len(offsets)-1] != int64(len(full)) {
		t.Fatalf("last offset %d, file size %d", offsets[len(offsets)-1], len(full))
	}

	// Cut exactly at each record boundary (clean kill between appends)
	// and 3 bytes past it (torn frame).
	for i, off := range offsets {
		for _, cut := range []int64{off, off + 3} {
			if cut > int64(len(full)) {
				continue
			}
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			jr, err := OpenJournal(dir, meta)
			if err != nil {
				t.Fatalf("cut %d: reopen: %v", cut, err)
			}
			got := jr.Keys()
			_ = jr.Close()
			want := keys[:i] // records after the meta record, before the cut
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("cut at %d: recovered %v, want %v", cut, got, want)
			}
		}
	}
}

func TestJournalRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.gckj")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenJournal(dir, []byte("m")); err == nil {
		t.Fatal("garbage journal accepted")
	}
}

func TestInspectJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, []byte("m"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_ = j.Append("a", []byte("1"))
	_ = j.Append("b", []byte("2"))
	keys, err := InspectJournal(j.Path())
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("inspect keys %v", keys)
	}
	_ = j.Close()
}
