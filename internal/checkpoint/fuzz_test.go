package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// fuzzResults is a Results value with every container populated, the
// shape the sweep journal stores per replication.
func fuzzResults() core.Results {
	return core.Results{
		Scheme:          "GroCoca",
		Completed:       true,
		Requests:        250,
		MeanLatency:     37 * time.Millisecond,
		P99Latency:      410 * time.Millisecond,
		GlobalHitRatio:  0.42,
		TotalEnergy:     1.5e6,
		EnergyBreakdown: map[string]float64{"p2p-send": 2.5, "bcast-recv": 0.125},
		SimTime:         90 * time.Second,
		Events:          123456,
		Aux:             client.AuxCounters{Validations: 3, FilterBypasses: 9},
	}
}

// FuzzUnmarshal decodes arbitrary bytes as a journaled Results. Decoding
// must fail or succeed without panicking, and a successful decode must
// re-encode to exactly the input bytes.
func FuzzUnmarshal(f *testing.F) {
	for _, v := range []any{core.Results{}, fuzzResults(), sampleValue()} {
		data, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0x0f, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r core.Results
		if err := Unmarshal(data, &r); err != nil {
			return
		}
		again, err := Marshal(r)
		if err != nil {
			t.Fatalf("re-marshal of a decoded value: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode accepted non-canonical input:\n in: %x\nout: %x", data, again)
		}
	})
}

// journalImage builds a valid journal holding one record per payload,
// keyed k0, k1, ..., after the meta record. ends[i] is the offset just
// past record i.
func journalImage(payloads [][]byte) (image []byte, keys []string, ends []int) {
	image = append(journalHeader(), frame(MetaKey, []byte("fuzz"))...)
	for i, p := range payloads {
		k := "k" + string(rune('0'+i))
		image = append(image, frame(k, p)...)
		keys = append(keys, k)
		ends = append(ends, len(image))
	}
	return image, keys, ends
}

// FuzzJournalLoad feeds arbitrary bytes to InspectJournal, which must
// return an error or keys without panicking. It then builds a valid
// journal from the same bytes (split at each zero byte into at most
// eight records), cuts it at a fuzzer-chosen offset, and requires the
// load to keep exactly the records that end at or before the cut.
func FuzzJournalLoad(f *testing.F) {
	image, _, ends := journalImage([][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")})
	for _, cut := range []int{0, len(journalHeader()), ends[0], ends[1] + 3, len(image)} {
		f.Add(image, uint(cut))
	}
	f.Add([]byte("not a journal at all"), uint(7))
	f.Add([]byte{}, uint(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		path := filepath.Join(t.TempDir(), "journal.gckj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = InspectJournal(path)

		payloads := bytes.Split(data, []byte{0})
		if len(payloads) > 8 {
			payloads = payloads[:8]
		}
		image, keys, ends := journalImage(payloads)
		c := int(cut % uint(len(image)+1))
		if err := os.WriteFile(path, image[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := InspectJournal(path)
		if c < len(journalHeader()) {
			if err == nil {
				t.Fatalf("journal cut inside its header (%d bytes) loaded", c)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid journal cut at %d: %v", c, err)
		}
		var want []string
		for i, end := range ends {
			if end <= c {
				want = append(want, keys[i])
			}
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("cut at %d of %d: kept %v, want %v", c, len(image), got, want)
		}
	})
}
