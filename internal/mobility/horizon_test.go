package mobility

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// horizonWorld builds a set of nodes that share randomness the way the
// simulation's motion groups do. Called twice with the same seed it must
// build identical twins.
type horizonWorld struct {
	name  string
	build func(t *testing.T, seed int64) []Node
}

func horizonWorlds() []horizonWorld {
	cfg := testConfig()
	noPause := cfg
	noPause.Pause = 0
	group := func(c Config, radius float64, members int, manhattan bool) func(*testing.T, int64) []Node {
		return func(t *testing.T, seed int64) []Node {
			t.Helper()
			rng := sim.NewRNG(seed).Stream("group")
			var g *Group
			var err error
			if manhattan {
				g, err = NewManhattanGroup(c, 100, radius, rng)
			} else {
				g, err = NewGroup(c, radius, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]Node, members)
			for i := range nodes {
				nodes[i] = g.NewMember()
			}
			return nodes
		}
	}
	return []horizonWorld{
		{"waypoint", func(t *testing.T, seed int64) []Node {
			w, err := NewWaypoint(cfg, sim.NewRNG(seed).Stream("wp"))
			if err != nil {
				t.Fatal(err)
			}
			return []Node{w}
		}},
		{"waypoint-nopause", func(t *testing.T, seed int64) []Node {
			w, err := NewWaypoint(noPause, sim.NewRNG(seed).Stream("wp"))
			if err != nil {
				t.Fatal(err)
			}
			return []Node{w}
		}},
		{"manhattan", func(t *testing.T, seed int64) []Node {
			m, err := NewManhattan(cfg, 100, sim.NewRNG(seed).Stream("mh"))
			if err != nil {
				t.Fatal(err)
			}
			return []Node{m}
		}},
		{"group", group(cfg, 50, 4, false)},
		{"group-nopause", group(noPause, 80, 3, false)},
		{"manhattan-group", group(cfg, 30, 3, true)},
		{"singleton-radius0", group(cfg, 0, 1, false)},
		{"fixed", func(*testing.T, int64) []Node { return []Node{Fixed{At: geo.Point{X: 3, Y: 4}}} }},
	}
}

// TestHorizonProperties drives twin worlds through one random schedule of
// Position calls at non-decreasing times. World A additionally makes extra
// calls at random times within the called node's Horizon. Those calls must
// be pure: every scheduled call returns the same point, bit for bit, in
// both worlds. And every call within a horizon moves no faster than the
// horizon's speed: |P(t) − P(t0)| ≤ speed·(t − t0) + 1e-9, where t0 is the
// node's previous call.
func TestHorizonProperties(t *testing.T) {
	for _, w := range horizonWorlds() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				checkHorizon(t, w, seed)
			}
		})
	}
}

func checkHorizon(t *testing.T, w horizonWorld, seed int64) {
	t.Helper()
	a, b := w.build(t, seed), w.build(t, seed)
	sched := sim.NewRNG(seed).Stream("schedule")
	n := len(a)
	called := make([]bool, n)
	lastT := make([]time.Duration, n)
	lastP := make([]geo.Point, n)

	// callA samples node j of world A at t and checks the speed bound
	// against its previous call.
	callA := func(j int, t0 time.Duration) geo.Point {
		until, speed := a[j].Horizon()
		p := a[j].Position(t0)
		if called[j] && t0 <= until {
			dt := (t0 - lastT[j]).Seconds()
			if d := geo.Dist(p, lastP[j]); d > speed*dt+1e-9 {
				t.Fatalf("seed %d node %d: moved %.12g m in %.9gs at speed bound %.12g",
					seed, j, d, dt, speed)
			}
		}
		if speed < 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
			t.Fatalf("seed %d node %d: speed %v", seed, j, speed)
		}
		called[j], lastT[j], lastP[j] = true, t0, p
		return p
	}

	now := time.Duration(0)
	extra := 0
	for step := 0; step < 3000; step++ {
		switch r := sched.Float64(); {
		case r < 0.3: // same timestamp again
		case r < 0.98:
			now += time.Duration(sched.Uniform(0, 3) * float64(time.Second))
		default:
			now += time.Duration(sched.Uniform(50, 400) * float64(time.Second))
		}
		// An extra, world-A-only call within the horizon of a random node.
		if sched.Bool(0.3) {
			j := sched.Intn(n)
			until, _ := a[j].Horizon()
			if until >= now {
				span := min(float64(until-now), float64(20*time.Second))
				now += time.Duration(sched.Uniform(0, span))
				callA(j, now)
				extra++
			}
		}
		j := sched.Intn(n)
		pa, pb := callA(j, now), b[j].Position(now)
		if pa != pb {
			t.Fatalf("seed %d step %d node %d t=%v: world A %v, untouched twin %v (after an in-horizon call)",
				seed, step, j, now, pa, pb)
		}
	}
	// The trajectories beyond the schedule, which draw fresh segments,
	// must still agree.
	for k := 1; k <= 20; k++ {
		now += 97 * time.Second
		for j := range a {
			if pa, pb := a[j].Position(now), b[j].Position(now); pa != pb {
				t.Fatalf("seed %d node %d t=%v: later trajectories diverged: %v vs %v", seed, j, now, pa, pb)
			}
		}
	}
	if extra == 0 {
		t.Fatalf("seed %d: schedule made no in-horizon calls", seed)
	}
}

// TestHorizonStationary pins the zero-speed contract the medium relies on
// to skip Position calls: within a zero-speed horizon the position is
// constant bit for bit.
func TestHorizonStationary(t *testing.T) {
	stands := map[string]bool{"waypoint": true, "manhattan": true, "singleton-radius0": true, "fixed": true}
	for _, w := range horizonWorlds() {
		nodes := w.build(t, 5)
		paused := 0
		now := time.Duration(0)
		for step := 0; step < 4000; step++ {
			now += 250 * time.Millisecond
			node := nodes[step%len(nodes)]
			p0 := node.Position(now)
			until, speed := node.Horizon()
			if speed != 0 {
				continue
			}
			paused++
			end := min(until, now+time.Hour)
			for _, t1 := range []time.Duration{now, now + (end-now)/2, end} {
				if p := node.Position(t1); p != p0 {
					t.Fatalf("%s: zero-speed horizon moved from %v at %v to %v at %v", w.name, p0, now, p, t1)
				}
			}
			now = end
		}
		if stands[w.name] && paused == 0 {
			t.Errorf("%s: never observed a zero-speed horizon", w.name)
		}
	}
}
