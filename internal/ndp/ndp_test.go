package ndp

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/sim"
)

// host wires a test peer's beacon reception into its Protocol.
type host struct {
	id        network.NodeID
	pos       geo.Point
	connected bool
	proto     *Protocol
}

func (h *host) ID() network.NodeID                { return h.id }
func (h *host) Position(time.Duration) geo.Point  { return h.pos }
func (h *host) Horizon() (time.Duration, float64) { return math.MaxInt64, 0 }
func (h *host) Connected() bool                   { return h.connected }
func (h *host) Receive(msg network.Message) {
	if msg.Kind == network.KindBeacon {
		h.proto.HandleBeacon(msg.From)
	}
}

func setup(t *testing.T) (*sim.Kernel, *network.Medium) {
	t.Helper()
	k := sim.NewKernel()
	m, err := network.NewMedium(k, network.MediumConfig{
		BandwidthKbps: 2000,
		RangeM:        100,
		Power:         network.DefaultPowerModel(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func newHost(t *testing.T, k *sim.Kernel, m *network.Medium, id network.NodeID, x float64, cfg Config) *host {
	t.Helper()
	h := &host{id: id, pos: geo.Point{X: x}, connected: true}
	p, err := New(k, m, id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.proto = p
	if err := m.Register(h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	k, m := setup(t)
	if _, err := New(k, m, 1, Config{Interval: 0, MissedCycles: 2}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := New(k, m, 1, Config{Interval: time.Second, MissedCycles: 0}); err == nil {
		t.Error("zero missed cycles accepted")
	}
}

func TestNeighborsDiscoverEachOther(t *testing.T) {
	k, m := setup(t)
	var ups []network.NodeID
	cfgA := Config{Interval: time.Second, MissedCycles: 2, OnUp: func(id network.NodeID) { ups = append(ups, id) }}
	a := newHost(t, k, m, 1, 0, cfgA)
	b := newHost(t, k, m, 2, 50, Config{Interval: time.Second, MissedCycles: 2})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.proto.Knows(2) || !b.proto.Knows(1) {
		t.Error("hosts did not discover each other")
	}
	if len(ups) != 1 || ups[0] != 2 {
		t.Errorf("OnUp calls = %v, want [2]", ups)
	}
}

func TestOutOfRangeNotDiscovered(t *testing.T) {
	k, m := setup(t)
	a := newHost(t, k, m, 1, 0, Config{Interval: time.Second, MissedCycles: 2})
	b := newHost(t, k, m, 2, 500, Config{Interval: time.Second, MissedCycles: 2})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.proto.Knows(2) || b.proto.Knows(1) {
		t.Error("out-of-range hosts discovered each other")
	}
}

func TestLinkFailureDetection(t *testing.T) {
	k, m := setup(t)
	var downs []network.NodeID
	a := newHost(t, k, m, 1, 0, Config{
		Interval:     time.Second,
		MissedCycles: 2,
		OnDown:       func(id network.NodeID) { downs = append(downs, id) },
	})
	b := newHost(t, k, m, 2, 50, Config{Interval: time.Second, MissedCycles: 2})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.proto.Knows(2) {
		t.Fatal("precondition: a should know b")
	}
	// b disconnects (stops beaconing and receiving).
	b.connected = false
	m.ConnectivityChanged(b.id)
	b.proto.Stop()
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.proto.Knows(2) {
		t.Error("a still knows b after silence")
	}
	if len(downs) != 1 || downs[0] != 2 {
		t.Errorf("OnDown calls = %v, want [2]", downs)
	}
}

func TestReconnectRediscovers(t *testing.T) {
	k, m := setup(t)
	var ups int
	a := newHost(t, k, m, 1, 0, Config{
		Interval:     time.Second,
		MissedCycles: 2,
		OnUp:         func(network.NodeID) { ups++ },
	})
	b := newHost(t, k, m, 2, 50, Config{Interval: time.Second, MissedCycles: 2})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	b.connected = false
	m.ConnectivityChanged(b.id)
	b.proto.Stop()
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	b.connected = true
	m.ConnectivityChanged(b.id)
	b.proto.Start()
	if err := k.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.proto.Knows(2) {
		t.Error("a did not rediscover b after reconnect")
	}
	if ups != 2 {
		t.Errorf("OnUp count = %d, want 2 (initial + reconnect)", ups)
	}
}

func TestStopReportsAllNeighborsDown(t *testing.T) {
	k, m := setup(t)
	var downs []network.NodeID
	a := newHost(t, k, m, 1, 0, Config{
		Interval:     time.Second,
		MissedCycles: 3,
		OnDown:       func(id network.NodeID) { downs = append(downs, id) },
	})
	newHost(t, k, m, 2, 30, Config{Interval: time.Second, MissedCycles: 3}).proto.Start()
	newHost(t, k, m, 3, 60, Config{Interval: time.Second, MissedCycles: 3}).proto.Start()
	a.proto.Start()
	if err := k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.proto.NeighborCount() != 2 {
		t.Fatalf("neighbor count = %d, want 2", a.proto.NeighborCount())
	}
	a.proto.Stop()
	if len(downs) != 2 {
		t.Errorf("OnDown calls on Stop = %d, want 2", len(downs))
	}
	if a.proto.Running() {
		t.Error("protocol still running after Stop")
	}
	// Beacons received while stopped are ignored.
	a.proto.HandleBeacon(2)
	if a.proto.NeighborCount() != 0 {
		t.Error("stopped protocol recorded a beacon")
	}
}

func TestStartIdempotent(t *testing.T) {
	k, m := setup(t)
	a := newHost(t, k, m, 1, 0, Config{Interval: time.Second, MissedCycles: 2})
	a.proto.Start()
	a.proto.Start() // second Start is a no-op
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// With a single beacon loop, the node sends ~5 beacons in 5 s (one per
	// second starting at 0), not ~10.
	sent, _, _, _ := m.Stats()
	if sent < 5 || sent > 7 {
		t.Errorf("beacons sent = %d, want ~5-6", sent)
	}
}
