package network

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// benchPeer is a stationary always-connected peer whose Receive is a no-op,
// so the benchmark measures the medium, not inbox bookkeeping.
type benchPeer struct {
	id  NodeID
	pos geo.Point
}

func (p *benchPeer) ID() NodeID                        { return p.id }
func (p *benchPeer) Position(time.Duration) geo.Point  { return p.pos }
func (p *benchPeer) Horizon() (time.Duration, float64) { return math.MaxInt64, 0 }
func (p *benchPeer) Connected() bool                   { return true }
func (p *benchPeer) Receive(Message)                   {}

// benchMedium builds a medium holding n stationary peers scattered at
// constant density (~20 hosts per transmission-range disc), so the indexed
// candidate count k stays fixed while N grows. Positions come from the
// deterministic sim RNG, identical across the grid and brute variants.
func benchMedium(b *testing.B, n int, brute bool) *Medium {
	b.Helper()
	k := sim.NewKernel()
	m, err := NewMedium(k, MediumConfig{
		BandwidthKbps: 800,
		RangeM:        100,
		Power:         DefaultPowerModel(),
		BruteForce:    brute,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Square world sized for ~20 hosts per pi*r^2 disc.
	side := 100 * math.Sqrt(math.Pi*float64(n)/20)
	rng := sim.NewRNG(int64(n)).Stream("bench-layout")
	for i := 0; i < n; i++ {
		p := &benchPeer{id: NodeID(i), pos: geo.Point{
			X: rng.Uniform(0, side),
			Y: rng.Uniform(0, side),
		}}
		if err := m.Register(p); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkNeighbors measures one reachability query per op at fixed host
// density. The grid variant is the production path; brute is the pairwise
// scan it replaced. The PR-7 acceptance bar is grid ≥ 10x brute at N=10000.
func BenchmarkNeighbors(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name  string
			brute bool
		}{{"grid", false}, {"brute", true}} {
			b.Run(fmt.Sprintf("%s/N=%d", mode.name, n), func(b *testing.B) {
				m := benchMedium(b, n, mode.brute)
				m.Neighbors(NodeID(n / 2)) // sample every host, warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Neighbors(NodeID(i % n))
				}
			})
		}
	}
}

// BenchmarkBroadcast measures one full beacon round per op: every host
// broadcasts at the same instant and all completions land on one timestamp,
// exactly the NDP workload. The grid runs N O(k) queries and resamples
// only the hosts whose deadline passed (none here: the peers stand still,
// so after the warm-up round every anchor is exact); brute force runs N
// O(N) scans — the O(N·k) vs O(N²) distinction the spatial index exists
// for.
func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name  string
			brute bool
		}{{"grid", false}, {"brute", true}} {
			b.Run(fmt.Sprintf("%s/N=%d", mode.name, n), func(b *testing.B) {
				m := benchMedium(b, n, mode.brute)
				beacon := func() {
					for id := 0; id < n; id++ {
						m.Broadcast(Message{Kind: KindBeacon, From: NodeID(id), Size: BeaconSize})
					}
					for m.k.Step() {
					}
				}
				beacon() // warm the index, scratch buffers, and NIC events
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					beacon()
				}
			})
		}
	}
}

// BenchmarkMediumTransmit measures the full transmission path — NIC
// occupancy, completion-time range evaluation against every registered
// peer, per-receiver energy accounting, delivery — for one point-to-point
// send plus one broadcast across a 20-peer neighborhood. The derived
// events/sec figure is the medium-throughput entry of BENCH_seed.json.
func BenchmarkMediumTransmit(b *testing.B) {
	k := sim.NewKernel()
	m, err := NewMedium(k, MediumConfig{BandwidthKbps: 800, RangeM: 100, Power: DefaultPowerModel()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := m.Register(&benchPeer{id: NodeID(i), pos: geo.Point{X: float64(i * 7), Y: 0}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NodeID(i % n)
		m.Send(Message{Kind: KindRequest, From: src, To: NodeID((i + 1) % n), Size: RequestSize})
		m.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
		for k.Step() {
		}
	}
}
