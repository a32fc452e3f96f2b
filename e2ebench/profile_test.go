package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestChargeTo(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"innermost program frame", []string{
			"repro/internal/geo.(*Grid).AppendRange",
			"repro/internal/network.(*Medium).sweep",
			"repro/internal/sim.(*Kernel).Run",
		}, "geo"},
		{"runtime frames go to their program caller", []string{
			"runtime.mallocgc",
			"runtime.gcAssistAlloc",
			"runtime.growslice",
			"repro/internal/network.(*Medium).Broadcast",
			"repro/internal/sim.(*Kernel).Run",
		}, "network"},
		{"library frames go to their program caller", []string{
			"container/heap.down",
			"container/heap.Pop",
			"repro/internal/sim.(*Kernel).Run",
		}, "sim"},
		{"closures charge their package", []string{
			"repro/internal/client.(*Host).scheduleNextRequest.func1",
			"repro/internal/sim.(*Kernel).Run",
		}, "client"},
		{"subpackages charge their parent", []string{
			"repro/internal/strategy/conformance.Check",
		}, "strategy"},
		{"GC background work", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, gcBucket},
		{"GC stand-in frame", []string{"runtime._GC"}, gcBucket},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, gcBucket},
		{"benchmark's own code", []string{"main.(*bench).drive", "main.main"}, otherBucket},
		{"profiler itself", []string{"runtime/pprof.profileWriter"}, otherBucket},
		{"another module named like the program", []string{"repro/internalx.F"}, otherBucket},
	}
	for _, c := range cases {
		if got := chargeTo(c.frames); got != c.want {
			t.Errorf("%s: chargeTo = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfSharesSumTo100(t *testing.T) {
	stacks := []stack{
		{[]string{"repro/internal/geo.F"}, 5},
		{[]string{"runtime.memmove", "repro/internal/geo.G"}, 3},
		{[]string{"runtime.mallocgc", "repro/internal/bloom.(*Filter).Add"}, 1},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, 2},
		{[]string{"main.main"}, 1},
	}
	got := selfShares(stacks)
	want := map[string]float64{"geo": 8 * 100.0 / 12, "bloom": 100.0 / 12, gcBucket: 2 * 100.0 / 12, otherBucket: 100.0 / 12}
	if len(got) != len(want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
	var sum float64
	for b, w := range want {
		if math.Abs(got[b]-w) > 1e-9 {
			t.Errorf("%s: share %v, want %v", b, got[b], w)
		}
		sum += got[b]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if got := selfShares(nil); len(got) != 0 {
		t.Errorf("no samples: shares %v, want none", got)
	}
}

// pb builds protobuf messages for the decoder test.
type pb struct{ buf []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.buf = binary.AppendUvarint(p.buf, uint64(field)<<3)
	p.buf = binary.AppendUvarint(p.buf, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.buf = binary.AppendUvarint(p.buf, uint64(field)<<3|2)
	p.buf = binary.AppendUvarint(p.buf, uint64(len(b)))
	p.buf = append(p.buf, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestParseProfile(t *testing.T) {
	var prof pb
	prof.bytes(1, new(pb).varint(1, 1).varint(2, 2).buf) // sample_type, skipped
	// Two samples: one with packed location ids and values, one unpacked.
	prof.bytes(2, new(pb).bytes(1, packed(10, 20, 30)).bytes(2, packed(7, 70000000)).buf)
	prof.bytes(2, new(pb).varint(1, 20).varint(2, 4).varint(2, 40000000).buf)
	// Location 10 holds an inlined frame: function 2 inlined into 1.
	prof.bytes(4, new(pb).varint(1, 10).varint(3, 0x1234).
		bytes(4, new(pb).varint(1, 2).varint(2, 11).buf).
		bytes(4, new(pb).varint(1, 1).varint(2, 12).buf).buf)
	prof.bytes(4, new(pb).varint(1, 20).bytes(4, new(pb).varint(1, 3).buf).buf)
	prof.bytes(4, new(pb).varint(1, 30).bytes(4, new(pb).varint(1, 4).buf).buf)
	for id, name := range []uint64{1, 2, 3, 4} {
		prof.bytes(5, new(pb).varint(1, uint64(id+1)).varint(2, name).varint(4, 5).buf)
	}
	for _, s := range []string{"", "runtime.mallocgc", "runtime.growslice", "repro/internal/geo.F", "main.main", "geo.go"} {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.buf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{[]string{"runtime.growslice", "runtime.mallocgc", "repro/internal/geo.F", "main.main"}, 7},
		{[]string{"repro/internal/geo.F"}, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseProfile = %v, want %v", got, want)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted a corrupt profile")
	}
}
