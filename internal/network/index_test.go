package network

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// movingPeer is a test peer whose position is a deterministic function of
// time, exercising the per-timestamp re-bucketing path of the spatial index.
type movingPeer struct {
	id        NodeID
	origin    geo.Point
	vx, vy    float64
	connected bool
	inbox     []Message
}

func (p *movingPeer) ID() NodeID { return p.id }
func (p *movingPeer) Position(t time.Duration) geo.Point {
	s := t.Seconds()
	return geo.Point{X: p.origin.X + p.vx*s, Y: p.origin.Y + p.vy*s}
}
func (p *movingPeer) Horizon() (time.Duration, float64) {
	return math.MaxInt64, math.Hypot(p.vx, p.vy)
}
func (p *movingPeer) Connected() bool     { return p.connected }
func (p *movingPeer) Receive(msg Message) { p.inbox = append(p.inbox, msg) }
func (p *movingPeer) setConnected(m *Medium, c bool) {
	if p.connected != c {
		p.connected = c
		m.ConnectivityChanged(p.id)
	}
}

// twinMediums builds a grid-indexed medium and a brute-force medium with
// identically-parameterised peer populations, returning both peer sets.
func twinMediums(t *testing.T, k *sim.Kernel, n int, seed int64) (*Medium, *Medium, []*movingPeer, []*movingPeer) {
	t.Helper()
	build := func(brute bool) (*Medium, []*movingPeer) {
		m, err := NewMedium(k, MediumConfig{
			BandwidthKbps: 2000,
			RangeM:        100,
			Power:         DefaultPowerModel(),
			BruteForce:    brute,
		}, NewMeter())
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed).Stream("index-equiv")
		peers := make([]*movingPeer, n)
		for i := range peers {
			peers[i] = &movingPeer{
				id:        NodeID(i + 1),
				origin:    geo.Point{X: rng.Uniform(-300, 300), Y: rng.Uniform(-300, 300)},
				vx:        rng.Uniform(-20, 20),
				vy:        rng.Uniform(-20, 20),
				connected: true,
			}
			if err := m.Register(peers[i]); err != nil {
				t.Fatal(err)
			}
		}
		return m, peers
	}
	gm, gp := build(false)
	bm, bp := build(true)
	return gm, bm, gp, bp
}

// TestNeighborsGridMatchesBrute compares the indexed and pairwise Neighbors
// across moving peers, advancing time and flipping connectivity between
// checks.
func TestNeighborsGridMatchesBrute(t *testing.T) {
	k := sim.NewKernel()
	const n = 40
	gm, bm, gp, bp := twinMediums(t, k, n, 23)
	rng := sim.NewRNG(29).Stream("churn")

	check := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			id := NodeID(i + 1)
			got := append([]NodeID(nil), gm.Neighbors(id)...)
			want := append([]NodeID(nil), bm.Neighbors(id)...)
			if len(got) != len(want) {
				t.Fatalf("t=%v Neighbors(%d): grid %v, brute %v", k.Now(), id, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("t=%v Neighbors(%d): grid %v, brute %v", k.Now(), id, got, want)
				}
			}
		}
	}

	check()
	for step := 0; step < 30; step++ {
		k.Schedule(time.Duration(step+1)*time.Second, func() {})
		if err := k.Run(time.Duration(step+1) * time.Second); err != nil {
			t.Fatal(err)
		}
		// Flip one peer's connectivity in both worlds.
		i := rng.Intn(n)
		gp[i].setConnected(gm, !gp[i].connected)
		bp[i].setConnected(bm, !bp[i].connected)
		check()
	}
}

// TestTrafficGridMatchesBrute runs identical Broadcast/Send traffic through
// both mediums and requires identical delivery, drop, and per-node energy
// accounting.
func TestTrafficGridMatchesBrute(t *testing.T) {
	k := sim.NewKernel()
	const n = 30
	gm, bm, gp, bp := twinMediums(t, k, n, 31)
	rng := sim.NewRNG(37).Stream("traffic")

	for step := 0; step < 60; step++ {
		src := NodeID(rng.Intn(n) + 1)
		if rng.Bool(0.3) {
			gm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
			bm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
		} else {
			dst := NodeID(rng.Intn(n) + 1)
			gm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
			bm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
		}
		if rng.Bool(0.2) {
			i := rng.Intn(n)
			gp[i].setConnected(gm, !gp[i].connected)
			bp[i].setConnected(bm, !bp[i].connected)
		}
		if err := k.Run(time.Duration(step+1) * 50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for k.Step() {
	}

	gs, gd, gdr, gb := gm.Stats()
	bs, bd, bdr, bb := bm.Stats()
	if gs != bs || gd != bd || gdr != bdr || gb != bb {
		t.Errorf("stats diverged: grid (%d,%d,%d,%d), brute (%d,%d,%d,%d)",
			gs, gd, gdr, gb, bs, bd, bdr, bb)
	}
	if gm.Drops() != bm.Drops() {
		t.Errorf("drop breakdown diverged: grid %+v, brute %+v", gm.Drops(), bm.Drops())
	}
	for i := 0; i < n; i++ {
		id := NodeID(i + 1)
		if gv, bv := gm.Meter().Node(id), bm.Meter().Node(id); gv != bv {
			t.Errorf("node %d energy diverged: grid %v, brute %v", id, gv, bv)
		}
		if len(gp[i].inbox) != len(bp[i].inbox) {
			t.Errorf("node %d inbox diverged: grid %d msgs, brute %d msgs",
				id, len(gp[i].inbox), len(bp[i].inbox))
			continue
		}
		for j := range gp[i].inbox {
			if gp[i].inbox[j] != bp[i].inbox[j] {
				t.Errorf("node %d message %d diverged: grid %+v, brute %+v",
					id, j, gp[i].inbox[j], bp[i].inbox[j])
			}
		}
	}
}

// TestNeighborsSteadyStateAllocs pins the indexed Neighbors hot path at zero
// allocations once its scratch buffers have grown to steady state.
func TestNeighborsSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	const n = 50
	for i := 0; i < n; i++ {
		addPeer(t, m, NodeID(i+1), float64((i%10)*30), float64((i/10)*30))
	}
	// Warm up: sample every host and grow all scratch buffers.
	for i := 0; i < n; i++ {
		m.Neighbors(NodeID(i + 1))
	}
	avg := testing.AllocsPerRun(200, func() {
		if m.Neighbors(7) == nil {
			t.Fatal("expected neighbors")
		}
	})
	if avg != 0 {
		t.Errorf("Neighbors allocates %.1f per call in steady state, want 0", avg)
	}
}

// rpgmPeer is a test peer moving under the RPGM model, so its Position
// calls draw from its motion group's shared RNG stream.
type rpgmPeer struct {
	id        NodeID
	mob       mobility.Node
	connected bool
	inbox     []Message
}

func (p *rpgmPeer) ID() NodeID                                    { return p.id }
func (p *rpgmPeer) Position(t time.Duration) geo.Point            { return p.mob.Position(t) }
func (p *rpgmPeer) Horizon() (until time.Duration, speed float64) { return p.mob.Horizon() }
func (p *rpgmPeer) Connected() bool                               { return p.connected }
func (p *rpgmPeer) Receive(msg Message)                           { p.inbox = append(p.inbox, msg) }
func (p *rpgmPeer) setConnected(m *Medium, c bool) {
	if p.connected != c {
		p.connected = c
		m.ConnectivityChanged(p.id)
	}
}

// rpgmWorld builds one medium whose peers are members of identically
// seeded motion groups: random-waypoint and Manhattan groups of several
// sizes, plus a single-member zero-radius group.
func rpgmWorld(t *testing.T, k *sim.Kernel, brute bool) (*Medium, []*rpgmPeer) {
	t.Helper()
	m, err := NewMedium(k, MediumConfig{
		BandwidthKbps: 2000,
		RangeM:        100,
		Power:         DefaultPowerModel(),
		BruteForce:    brute,
	}, NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mobility.Config{Space: geo.NewRect(500, 500), MinSpeed: 2, MaxSpeed: 15, Pause: time.Second}
	root := sim.NewRNG(41).Stream("rpgm")
	var peers []*rpgmPeer
	for g, size := range []int{8, 8, 1, 12, 6, 10, 7, 9} {
		rng := root.Stream(fmt.Sprintf("group-%d", g))
		var group *mobility.Group
		switch {
		case size == 1:
			group, err = mobility.NewGroup(cfg, 0, rng)
		case g%3 == 1:
			group, err = mobility.NewManhattanGroup(cfg, 100, 30, rng)
		default:
			group, err = mobility.NewGroup(cfg, 40, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size; i++ {
			p := &rpgmPeer{id: NodeID(len(peers) + 1), mob: group.NewMember(), connected: true}
			if err := m.Register(p); err != nil {
				t.Fatal(err)
			}
			peers = append(peers, p)
		}
	}
	return m, peers
}

// TestRPGMTrafficGridMatchesBrute is the index twin under real mobility:
// Position calls draw from shared per-group streams, so any slip in which
// hosts the indexed medium samples, or in what order, shifts every later
// trajectory. Random connectivity flips, beacons, sends and neighbor
// queries land on random (often repeated) timestamps; the two mediums must
// agree on every neighbor set, delivery, drop and per-node energy, and
// every member must end at the same position.
func TestRPGMTrafficGridMatchesBrute(t *testing.T) {
	k := sim.NewKernel()
	gm, gp := rpgmWorld(t, k, false)
	bm, bp := rpgmWorld(t, k, true)
	n := len(gp)
	rng := sim.NewRNG(43).Stream("rpgm-traffic")

	now := time.Duration(0)
	for step := 0; step < 4000; step++ {
		if rng.Bool(0.6) {
			now += time.Duration(rng.Uniform(0, 2) * float64(time.Second))
		}
		a, b := rng.Intn(n), rng.Intn(n)
		op := rng.Intn(10)
		k.At(now, func() {
			switch {
			case op < 2:
				gp[a].setConnected(gm, !gp[a].connected)
				bp[a].setConnected(bm, !bp[a].connected)
			case op < 5:
				gm.Broadcast(Message{Kind: KindBeacon, From: gp[a].id, Size: BeaconSize})
				bm.Broadcast(Message{Kind: KindBeacon, From: bp[a].id, Size: BeaconSize})
			case op < 8:
				gm.Send(Message{Kind: KindData, From: gp[a].id, To: gp[b].id, Size: 500})
				bm.Send(Message{Kind: KindData, From: bp[a].id, To: bp[b].id, Size: 500})
			default:
				got, want := gm.Neighbors(gp[a].id), bm.Neighbors(bp[a].id)
				if !slices.Equal(got, want) {
					t.Errorf("t=%v Neighbors(%d): grid %v, brute %v", k.Now(), gp[a].id, got, want)
				}
			}
		})
	}
	for k.Step() {
	}
	if t.Failed() {
		return
	}

	gs, gd, gdr, gb := gm.Stats()
	bs, bd, bdr, bb := bm.Stats()
	if gs != bs || gd != bd || gdr != bdr || gb != bb {
		t.Errorf("stats diverged: grid (%d,%d,%d,%d), brute (%d,%d,%d,%d)", gs, gd, gdr, gb, bs, bd, bdr, bb)
	}
	if gd == 0 || gm.Drops().Unreachable == 0 {
		t.Errorf("degenerate run: %d delivered, drops %+v", gd, gm.Drops())
	}
	if gm.Drops() != bm.Drops() {
		t.Errorf("drop breakdown diverged: grid %+v, brute %+v", gm.Drops(), bm.Drops())
	}
	if gm.Meter().Total() != bm.Meter().Total() {
		t.Errorf("total energy diverged: grid %v, brute %v", gm.Meter().Total(), bm.Meter().Total())
	}
	end := now + time.Hour
	for i := range gp {
		if gv, bv := gm.Meter().Node(gp[i].id), bm.Meter().Node(bp[i].id); gv != bv {
			t.Errorf("node %d energy diverged: grid %v, brute %v", gp[i].id, gv, bv)
		}
		if !slices.Equal(gp[i].inbox, bp[i].inbox) {
			t.Errorf("node %d inbox diverged: grid %d msgs, brute %d msgs", gp[i].id, len(gp[i].inbox), len(bp[i].inbox))
		}
		if g, b := gp[i].Position(end), bp[i].Position(end); g != b {
			t.Errorf("node %d trajectory diverged: grid %v, brute %v at %v", gp[i].id, g, b, end)
		}
	}
}
