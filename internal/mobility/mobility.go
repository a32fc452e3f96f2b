// Package mobility implements the movement models of the paper's client
// model: the random waypoint model (Broch et al.) and the reference point
// group mobility model (Hong et al.), in which each motion group's
// reference point follows a reference trajectory and members move in loose
// formation around it — plus a Manhattan street-grid model as an urban
// alternative reference trajectory.
//
// Trajectories are piecewise linear and generated lazily: a model holds only
// its current segment and extends it on demand, so positions can be sampled
// at arbitrary (non-decreasing) simulation times without stepping a global
// movement clock.
package mobility

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Node is anything whose position can be sampled over simulation time.
// Position must be called with non-decreasing times; the simulation's global
// clock guarantees this.
//
// Horizon describes the linear piece the last Position call landed on:
// Position(t) is a pure function of t — it draws no randomness and changes
// no state — for every t up to until, and across that span the position
// moves at most speed metres per second. A zero speed means Position
// returns the same point, bit for bit, until then. Before the first
// Position call until may lie before time zero.
type Node interface {
	Position(t time.Duration) geo.Point
	Horizon() (until time.Duration, speed float64)
}

// forever is the horizon of a trajectory that never draws again.
const forever = time.Duration(math.MaxInt64)

// segment is one linear piece of a trajectory: the node moves from From to
// To over [Start, End]. Pauses are segments with From == To.
type segment struct {
	start, end time.Duration
	from, to   geo.Point
}

// speed is the segment's travel speed in m/s; zero for pauses and
// zero-length segments.
func (s segment) speed() float64 {
	return legSpeed(s.from, s.to, s.end-s.start)
}

// legSpeed is the speed of covering from→to in d.
func legSpeed(from, to geo.Point, d time.Duration) float64 {
	if d <= 0 || from == to {
		return 0
	}
	return geo.Dist(from, to) / d.Seconds()
}

func (s segment) at(t time.Duration) geo.Point {
	if s.end <= s.start {
		return s.to
	}
	progress := float64(t-s.start) / float64(s.end-s.start)
	return geo.Lerp(s.from, s.to, progress)
}

// Config holds the waypoint-model parameters shared by both models.
type Config struct {
	// Space is the movement area.
	Space geo.Rect
	// MinSpeed and MaxSpeed bound the uniformly drawn speed, in m/s.
	// MaxSpeed must be positive.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint.
	Pause time.Duration
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Space.Width() <= 0 || c.Space.Height() <= 0 {
		return fmt.Errorf("mobility: degenerate space %+v", c.Space)
	}
	if c.MaxSpeed <= 0 {
		return fmt.Errorf("mobility: MaxSpeed %v must be positive", c.MaxSpeed)
	}
	if c.MinSpeed < 0 || c.MinSpeed > c.MaxSpeed {
		return fmt.Errorf("mobility: speed range [%v, %v] invalid", c.MinSpeed, c.MaxSpeed)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.Pause)
	}
	return nil
}

// Waypoint is a random waypoint trajectory: repeatedly pick a uniform
// destination in the space, move to it at a uniform random speed, pause,
// and repeat.
type Waypoint struct {
	cfg Config
	rng *sim.RNG
	cur segment
	// pausedNext is true when the next generated segment is a pause.
	pausedNext bool
}

var _ Node = (*Waypoint)(nil)

// NewWaypoint creates a random waypoint trajectory starting at a uniform
// random position at time zero.
func NewWaypoint(cfg Config, rng *sim.RNG) (*Waypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := randPoint(cfg.Space, rng)
	w := &Waypoint{
		cfg: cfg,
		rng: rng,
		cur: segment{start: 0, end: 0, from: start, to: start},
	}
	return w, nil
}

func randPoint(r geo.Rect, rng *sim.RNG) geo.Point {
	return geo.Point{
		X: rng.Uniform(r.MinX, r.MaxX),
		Y: rng.Uniform(r.MinY, r.MaxY),
	}
}

// Position returns the node position at time t (non-decreasing across
// calls).
func (w *Waypoint) Position(t time.Duration) geo.Point {
	return w.segmentAt(t).at(t)
}

// Horizon implements Node: the current segment is fixed until it ends.
func (w *Waypoint) Horizon() (time.Duration, float64) {
	return w.cur.end, w.cur.speed()
}

// segmentAt extends the trajectory until it covers t and returns the
// covering segment.
func (w *Waypoint) segmentAt(t time.Duration) segment {
	for t > w.cur.end {
		w.advance()
	}
	return w.cur
}

// advance appends the next segment: a pause at the current waypoint or a
// move to a fresh waypoint, alternating.
func (w *Waypoint) advance() {
	here := w.cur.to
	if w.pausedNext && w.cfg.Pause > 0 {
		w.cur = segment{start: w.cur.end, end: w.cur.end + w.cfg.Pause, from: here, to: here}
		w.pausedNext = false
		return
	}
	dest := randPoint(w.cfg.Space, w.rng)
	speed := w.rng.Uniform(w.cfg.MinSpeed, w.cfg.MaxSpeed)
	if speed <= 0 {
		speed = w.cfg.MaxSpeed
	}
	dist := geo.Dist(here, dest)
	travel := time.Duration(dist / speed * float64(time.Second))
	if travel <= 0 {
		travel = time.Millisecond
	}
	w.cur = segment{start: w.cur.end, end: w.cur.end + travel, from: here, to: dest}
	w.pausedNext = true
}

// trajectory is the lazily extended piecewise-linear path both reference
// models (random waypoint and Manhattan grid) implement.
type trajectory interface {
	Node
	segmentAt(t time.Duration) segment
}

var (
	_ trajectory = (*Waypoint)(nil)
	_ trajectory = (*Manhattan)(nil)
)

// Group is a reference point group mobility model: the group's invisible
// reference point follows a reference trajectory (random waypoint by
// default, Manhattan grid optionally), and each member tracks the reference
// point plus a smoothly varying random offset within Radius. With a single
// member and zero radius it degenerates to the individual reference model,
// matching the paper's GroupSize = 1 case.
type Group struct {
	ref    trajectory
	space  geo.Rect
	radius float64
	rng    *sim.RNG
}

// NewGroup creates a motion group whose members roam within radius metres of
// a shared random waypoint reference point.
func NewGroup(cfg Config, radius float64, rng *sim.RNG) (*Group, error) {
	ref, err := NewWaypoint(cfg, rng)
	if err != nil {
		return nil, err
	}
	return newGroup(ref, cfg.Space, radius, rng)
}

// NewManhattanGroup creates a motion group whose reference point follows a
// Manhattan street grid with the given spacing.
func NewManhattanGroup(cfg Config, spacing, radius float64, rng *sim.RNG) (*Group, error) {
	ref, err := NewManhattan(cfg, spacing, rng)
	if err != nil {
		return nil, err
	}
	return newGroup(ref, cfg.Space, radius, rng)
}

func newGroup(ref trajectory, space geo.Rect, radius float64, rng *sim.RNG) (*Group, error) {
	if radius < 0 {
		return nil, fmt.Errorf("mobility: negative group radius %v", radius)
	}
	return &Group{ref: ref, space: space, radius: radius, rng: rng}, nil
}

// NewMember adds a member to the group. Members sample their own offsets
// from the group RNG at creation and segment boundaries, so creation order
// matters for reproducibility.
func (g *Group) NewMember() *Member {
	off := g.randOffset()
	return &Member{
		g:        g,
		offStart: off,
		offEnd:   off,
	}
}

func (g *Group) randOffset() geo.Point {
	if g.radius == 0 {
		return geo.Point{}
	}
	// Rejection-sample a point in the disc for a uniform spatial spread.
	for {
		p := geo.Point{
			X: g.rng.Uniform(-g.radius, g.radius),
			Y: g.rng.Uniform(-g.radius, g.radius),
		}
		if p.X*p.X+p.Y*p.Y <= g.radius*g.radius {
			return p
		}
	}
}

// Reference returns the group's reference trajectory, mainly for tests.
func (g *Group) Reference() Node { return g.ref }

// Member is one mobile host in a motion group.
type Member struct {
	g *Group
	// seg is the reference segment the offsets are keyed to.
	seg              segment
	segSet           bool
	offStart, offEnd geo.Point
}

var _ Node = (*Member)(nil)

// Position returns the member position at time t: the reference point plus
// an offset interpolated across the current reference segment, clamped to
// the movement space.
func (m *Member) Position(t time.Duration) geo.Point {
	ref := m.g.ref.segmentAt(t)
	if !m.segSet || ref.start != m.seg.start {
		// New reference segment: drift toward a fresh offset target.
		m.offStart = m.offEnd
		m.offEnd = m.g.randOffset()
		m.seg = ref
		m.segSet = true
	}
	var progress float64
	if ref.end > ref.start {
		progress = float64(t-ref.start) / float64(ref.end-ref.start)
	}
	off := geo.Lerp(m.offStart, m.offEnd, progress)
	return m.g.space.Clamp(ref.at(t).Add(off))
}

// Horizon implements Node. Position draws only on entering a reference
// segment it has not seen, so it stays pure until the last seen segment
// ends. The speed adds the reference speed to the offset's drift speed;
// clamping to the space never moves a point faster. Before the first
// Position call every time draws, so until is -1.
func (m *Member) Horizon() (time.Duration, float64) {
	if !m.segSet {
		return -1, 0
	}
	d := m.seg.end - m.seg.start
	return m.seg.end, m.seg.speed() + legSpeed(m.offStart, m.offEnd, d)
}

// Fixed is a stationary node, useful for tests and for modelling the MSS.
type Fixed struct {
	At geo.Point
}

var _ Node = Fixed{}

// Position returns the fixed location regardless of time.
func (f Fixed) Position(time.Duration) geo.Point { return f.At }

// Horizon implements Node: a fixed node never moves and never draws.
func (f Fixed) Horizon() (time.Duration, float64) { return forever, 0 }
