package network

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Peer is a mobile host attached to the medium. Position and Connected are
// sampled at transmission-completion time to decide reachability; Receive is
// invoked once per delivered message.
//
// Horizon has the contract of mobility.Node: after a Position call,
// Position(t) is a pure function of t for every t up to until, and moves
// at most speed metres per second (a zero speed means not at all). The
// spatial index resamples a host only once that horizon, or its drift
// allowance, runs out.
//
// A peer whose Connected() value changes after registration must call
// Medium.ConnectivityChanged: a host that fell due while disconnected is
// parked until that notification re-queues it (see DESIGN.md "Spatial
// index").
type Peer interface {
	ID() NodeID
	Position(t time.Duration) geo.Point
	Horizon() (until time.Duration, speed float64)
	Connected() bool
	Receive(msg Message)
}

// Medium is the shared P2P wireless channel: every mobile host has one
// half-duplex NIC modelled as a single-capacity FCFS resource; a message
// occupies the sender's NIC for size/bandwidth, and on completion it is
// delivered to every connected peer within TranRange (broadcast) or to the
// destination with bystander discard costs (point-to-point).
//
// Reachability is resolved through a uniform-grid spatial index (cell size
// = TranRange) instead of a pairwise scan over every registered peer, so a
// completion costs O(k + hosts due) for k hosts near the sender rather than
// O(N). The brute-force scan survives behind MediumConfig.BruteForce and is
// proven byte-identical by the index-equivalence tests.
type Medium struct {
	k      *sim.Kernel
	bwKbps float64
	rangeM float64
	power  PowerModel
	meter  *Meter
	peers  map[NodeID]Peer
	order  []NodeID // registration order, for deterministic iteration
	nics   map[NodeID]*sim.Resource
	faults *FaultPlan

	// Spatial index state, all indexed by registration index (regIdx).
	// The grid holds each host's anchor: its position when the medium
	// last resampled it, with the speed its Horizon then reported. due
	// orders hosts by the deadline after which the anchor may be more
	// than drift metres off or the next Position call may draw; a host
	// that falls due while disconnected leaves the heap (parked) until
	// ConnectivityChanged re-queues it. conn mirrors Connected() as of
	// the last notification, and nConn counts the connected hosts.
	brute  bool
	grid   *geo.Grid
	regIdx map[NodeID]int
	byIdx  []Peer
	anchor []geo.Point
	speed  []float64
	moving int // hosts whose anchor speed is nonzero
	drift  float64
	due    deadlineHeap
	conn   []bool
	nConn  int
	// Scratch buffers, reused across completions to keep the hot path
	// allocation-free.
	dueBuf    []int
	candSrc   []geo.GridID
	candDst   []geo.GridID
	neighbors []NodeID

	// stats
	sent, delivered uint64
	bytesSent       uint64
	drops           DropCounts
}

// DropCounts breaks a medium's dropped-message total down by cause, so
// experiments can attribute loss.
type DropCounts struct {
	// SenderDisconnected counts transmissions whose sender left the
	// network before its NIC finished sending.
	SenderDisconnected uint64
	// Unreachable counts point-to-point sends whose destination was out
	// of range or disconnected at completion time.
	Unreachable uint64
	// Fault counts messages destroyed by the installed FaultPlan.
	Fault uint64
	// Unregistered counts messages naming a sender or destination the
	// medium has never seen.
	Unregistered uint64
}

// Total sums the per-cause counters.
func (d DropCounts) Total() uint64 {
	return d.SenderDisconnected + d.Unreachable + d.Fault + d.Unregistered
}

// SetFaultPlan installs the injected-fault source. A nil plan (the
// default) keeps the ideal channel; it must be set before traffic flows.
func (m *Medium) SetFaultPlan(p *FaultPlan) { m.faults = p }

// MediumConfig parameterises the medium.
type MediumConfig struct {
	// BandwidthKbps is BW_P2P.
	BandwidthKbps float64
	// RangeM is TranRange in metres.
	RangeM float64
	// Power is the Table I model.
	Power PowerModel
	// BruteForce disables the spatial index and restores the pairwise
	// O(N) reachability scans. The two modes produce byte-identical
	// results (enforced by the index-equivalence tests); the flag exists
	// for A/B verification and benchmarking, not as a tuning knob.
	BruteForce bool
}

// NewMedium creates an empty medium served by k, charging energy to meter.
func NewMedium(k *sim.Kernel, cfg MediumConfig, meter *Meter) (*Medium, error) {
	if cfg.BandwidthKbps <= 0 {
		return nil, fmt.Errorf("network: bandwidth %v must be positive", cfg.BandwidthKbps)
	}
	if cfg.RangeM <= 0 {
		return nil, fmt.Errorf("network: range %v must be positive", cfg.RangeM)
	}
	if meter == nil {
		meter = NewMeter()
	}
	grid, err := geo.NewGrid(cfg.RangeM)
	if err != nil {
		return nil, fmt.Errorf("network: spatial index: %w", err)
	}
	return &Medium{
		k:      k,
		bwKbps: cfg.BandwidthKbps,
		rangeM: cfg.RangeM,
		power:  cfg.Power,
		meter:  meter,
		peers:  make(map[NodeID]Peer),
		nics:   make(map[NodeID]*sim.Resource),
		brute:  cfg.BruteForce,
		grid:   grid,
		regIdx: make(map[NodeID]int),
		drift:  cfg.RangeM / 4,
	}, nil
}

// Register attaches a peer to the medium. Registering a duplicate ID is an
// error.
func (m *Medium) Register(p Peer) error {
	if _, ok := m.peers[p.ID()]; ok {
		return fmt.Errorf("network: duplicate peer %d", p.ID())
	}
	i := len(m.order)
	m.peers[p.ID()] = p
	m.regIdx[p.ID()] = i
	m.order = append(m.order, p.ID())
	m.byIdx = append(m.byIdx, p)
	m.anchor = append(m.anchor, geo.Point{})
	m.speed = append(m.speed, 0)
	m.conn = append(m.conn, p.Connected())
	if m.conn[i] {
		m.nConn++
	}
	m.due.add(-1) // never sampled: due at the first resync
	m.nics[p.ID()] = sim.NewResource(m.k, 1)
	return nil
}

// ConnectivityChanged tells the medium that a registered peer's
// Connected() value flipped. Peers must call it on every transition: it
// keeps the connected-host count current and re-queues a host that fell
// due while disconnected, which the index otherwise never resamples.
func (m *Medium) ConnectivityChanged(id NodeID) {
	i, ok := m.regIdx[id]
	if !ok {
		return
	}
	c := m.byIdx[i].Connected()
	if c != m.conn[i] {
		m.conn[i] = c
		if c {
			m.nConn++
		} else {
			m.nConn--
		}
	}
	if c && !m.due.queued[i] {
		m.due.push(i, m.due.key[i])
	}
}

// Meter returns the energy meter the medium charges to.
func (m *Medium) Meter() *Meter { return m.meter }

// RangeM returns the transmission range in metres.
func (m *Medium) RangeM() float64 { return m.rangeM }

// inRange reports whether two connected peers can hear each other now.
func (m *Medium) inRange(a, b Peer, now time.Duration) bool {
	return geo.WithinRange(a.Position(now), b.Position(now), m.rangeM)
}

// sample resamples host i at now: it re-anchors i in the grid and queues
// i again under its next deadline, the earlier of its Horizon and the time
// it could drift m.drift metres at the reported speed.
func (m *Medium) sample(i int, now time.Duration) {
	p := m.byIdx[i].Position(now)
	if p != m.anchor[i] || !m.grid.Contains(geo.GridID(i)) {
		m.grid.Upsert(geo.GridID(i), p)
		m.anchor[i] = p
	}
	until, v := m.byIdx[i].Horizon()
	switch {
	case m.speed[i] == 0 && v != 0:
		m.moving++
	case m.speed[i] != 0 && v == 0:
		m.moving--
	}
	m.speed[i] = v
	deadline := until
	if v != 0 {
		if dt := m.drift / v * float64(time.Second); dt < float64(until-now) {
			deadline = now + time.Duration(dt)
		}
	}
	m.due.push(i, deadline)
}

// resync resamples every connected host whose deadline has passed, ahead
// of a completion (or Neighbors query) at now by srcIdx, involving dstIdx
// too for a point-to-point send (dstIdx < 0 otherwise). The caller
// guarantees srcIdx is connected and that another connected peer could
// hear it.
//
// Determinism contract: mobility models draw lazily from per-group RNG
// streams inside Position(t), so the order of the Position calls that
// draw is part of the replayed randomness. A host whose deadline has not
// passed is inside its Horizon, where Position draws nothing, so skipping
// it is unobservable. The due hosts are sampled in the call order of the
// brute-force scan: the sender, then a connected destination (the
// reachability check), then every other connected host in registration
// order. Disconnected due hosts are parked, never sampled, because brute
// force short-circuits on Connected() before Position().
//
//hot:runs before every transmission completion and neighbor query
func (m *Medium) resync(now time.Duration, srcIdx, dstIdx int) {
	m.dueBuf = m.dueBuf[:0]
	for {
		i, ok := m.due.popBefore(now)
		if !ok {
			break
		}
		m.dueBuf = append(m.dueBuf, i)
	}
	if !m.due.queued[srcIdx] {
		m.sample(srcIdx, now)
	}
	if dstIdx >= 0 && !m.due.queued[dstIdx] && m.byIdx[dstIdx].Connected() {
		m.sample(dstIdx, now)
	}
	if len(m.dueBuf) == 0 {
		return
	}
	slices.Sort(m.dueBuf)
	for _, i := range m.dueBuf {
		if i != srcIdx && i != dstIdx && m.byIdx[i].Connected() {
			m.sample(i, now)
		}
	}
}

// at returns host i's exact position at now. A stationary host stands at
// its anchor; a moving one is asked, which draws nothing because resync
// left no connected host past its deadline.
func (m *Medium) at(i int, now time.Duration) geo.Point {
	if m.speed[i] == 0 {
		return m.anchor[i]
	}
	return m.byIdx[i].Position(now)
}

// candidates appends the registration indices of every host whose anchor
// lies within range of center, in ascending (registration) order. While
// any host moves, anchors may be up to m.drift off, so the radius widens
// by twice that: one allowance for the drift, one as margin for rounding.
// The result is a superset of the hosts in range: callers filter on
// Connected() and then on geo.WithinRange at the exact position, exactly
// as the brute loops did.
func (m *Medium) candidates(dst []geo.GridID, center geo.Point) []geo.GridID {
	r := m.rangeM
	if m.moving > 0 {
		r += 2 * m.drift
	}
	return m.grid.AppendRange(dst[:0], center, r)
}

// Neighbors returns the IDs of connected peers currently within range of
// id, in registration order. The node itself is excluded; a disconnected or
// unknown node has no neighbors. The returned slice is a scratch buffer
// owned by the medium, valid until the next Neighbors call.
//
//hot:per-beacon-round reachability; 0 allocs/op pinned by TestNeighborsSteadyStateAllocs
func (m *Medium) Neighbors(id NodeID) []NodeID {
	self, ok := m.peers[id]
	if !ok || !self.Connected() {
		return nil
	}
	now := m.k.Now()
	m.neighbors = m.neighbors[:0]
	if m.brute {
		for _, oid := range m.order {
			if oid == id {
				continue
			}
			p := m.peers[oid]
			if p.Connected() && m.inRange(self, p, now) {
				m.neighbors = append(m.neighbors, oid)
			}
		}
	} else {
		if m.nConn < 2 {
			// No other connected peer exists; brute force would not
			// even sample this host.
			return nil
		}
		selfIdx := m.regIdx[id]
		m.resync(now, selfIdx, -1)
		center := m.at(selfIdx, now)
		m.candSrc = m.candidates(m.candSrc, center)
		for _, ci := range m.candSrc {
			i := int(ci)
			if i != selfIdx && m.byIdx[i].Connected() &&
				geo.WithinRange(center, m.at(i, now), m.rangeM) {
				m.neighbors = append(m.neighbors, m.order[i])
			}
		}
	}
	if len(m.neighbors) == 0 {
		return nil
	}
	return m.neighbors
}

// Broadcast transmits msg from its From node to every connected peer in
// range. The message spends size/bandwidth on the sender's NIC first
// (queueing FCFS behind earlier traffic); reachability is evaluated at
// completion time.
func (m *Medium) Broadcast(msg Message) {
	src, ok := m.peers[msg.From]
	if !ok {
		m.drops.Unregistered++
		return
	}
	msg.To = BroadcastID
	m.sent++
	m.bytesSent += uint64(msg.Size)
	m.nics[msg.From].Use(TxTime(msg.Size, m.bwKbps), func() {
		if !src.Connected() {
			m.drops.SenderDisconnected++
			return
		}
		now := m.k.Now()
		m.meter.Charge(msg.From, EnergyBroadcastSend, m.power.BSend.Energy(msg.Size))
		if m.brute {
			m.broadcastBrute(src, msg, now)
			return
		}
		if m.nConn < 2 {
			return // no other connected peer exists; nobody hears the frame
		}
		srcIdx := m.regIdx[msg.From]
		m.resync(now, srcIdx, -1)
		center := m.at(srcIdx, now)
		m.candSrc = m.candidates(m.candSrc, center)
		for _, ci := range m.candSrc {
			i := int(ci)
			if i != srcIdx && m.byIdx[i].Connected() &&
				geo.WithinRange(center, m.at(i, now), m.rangeM) {
				m.deliverBroadcast(m.order[i], msg, now)
			}
		}
	})
}

// broadcastBrute is the receiver loop of the pairwise scan.
func (m *Medium) broadcastBrute(src Peer, msg Message, now time.Duration) {
	for _, oid := range m.order {
		if oid == msg.From {
			continue
		}
		p := m.peers[oid]
		if !p.Connected() || !m.inRange(src, p, now) {
			continue
		}
		m.deliverBroadcast(oid, msg, now)
	}
}

// deliverBroadcast charges and delivers one broadcast reception. The
// receiver hears the frame (and pays for decoding it) whether or not the
// fault plan corrupts it. Per-receiver draws run in registration order,
// keeping replays exact.
func (m *Medium) deliverBroadcast(oid NodeID, msg Message, now time.Duration) {
	m.meter.Charge(oid, EnergyBroadcastRecv, m.power.BRecv.Energy(msg.Size))
	if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
		m.drops.Fault++
		return
	}
	m.delivered++
	m.peers[oid].Receive(msg)
}

// Send transmits msg point-to-point from msg.From to msg.To. If the
// destination is out of range or disconnected at completion time the
// message is lost. Bystanders in range of the source and/or destination pay
// the Table I discard costs.
func (m *Medium) Send(msg Message) {
	src, ok := m.peers[msg.From]
	if !ok {
		m.drops.Unregistered++
		return
	}
	dst, ok := m.peers[msg.To]
	if !ok {
		m.drops.Unregistered++
		return
	}
	m.sent++
	m.bytesSent += uint64(msg.Size)
	m.nics[msg.From].Use(TxTime(msg.Size, m.bwKbps), func() {
		if !src.Connected() {
			m.drops.SenderDisconnected++
			return
		}
		now := m.k.Now()
		m.meter.Charge(msg.From, EnergyP2PSend, m.power.Send.Energy(msg.Size))
		if m.brute {
			m.sendBrute(src, dst, msg, now)
			return
		}
		dstConnected := dst.Connected()
		if !dstConnected && m.nConn < 2 {
			// Nobody else is connected: no receiver, no bystanders, and
			// brute force would not even sample the sender.
			m.drops.Unreachable++
			return
		}
		srcIdx, dstIdx := m.regIdx[msg.From], m.regIdx[msg.To]
		m.resync(now, srcIdx, dstIdx)
		srcPos := m.at(srcIdx, now)
		var dstPos geo.Point
		if dstConnected {
			dstPos = m.at(dstIdx, now)
		}
		reachable := dstConnected && geo.WithinRange(srcPos, dstPos, m.rangeM)
		faulted := false
		if reachable {
			// The destination receives (and pays for) the frame even
			// when the fault plan corrupts it in transit.
			m.meter.Charge(msg.To, EnergyP2PRecv, m.power.Recv.Energy(msg.Size))
			if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
				faulted = true
				m.drops.Fault++
			}
		} else {
			m.drops.Unreachable++
		}
		// Bystander discard accounting: walk the union of the sorted
		// candidate sets around the source and (when reached) the
		// destination in registration order, and test each connected
		// bystander's exact position against both ends.
		nearSrc := m.candidates(m.candSrc, srcPos)
		m.candSrc = nearSrc
		var nearDst []geo.GridID
		if reachable {
			nearDst = m.candidates(m.candDst, dstPos)
			m.candDst = nearDst
		}
		i, j := 0, 0
		for i < len(nearSrc) || j < len(nearDst) {
			var ci int
			switch {
			case j >= len(nearDst) || (i < len(nearSrc) && nearSrc[i] < nearDst[j]):
				ci = int(nearSrc[i])
				i++
			case i >= len(nearSrc) || nearDst[j] < nearSrc[i]:
				ci = int(nearDst[j])
				j++
			default: // in both sets
				ci = int(nearSrc[i])
				i++
				j++
			}
			if ci == srcIdx || ci == dstIdx || !m.byIdx[ci].Connected() {
				continue
			}
			p := m.at(ci, now)
			ns := geo.WithinRange(srcPos, p, m.rangeM)
			nd := reachable && geo.WithinRange(dstPos, p, m.rangeM)
			oid := m.order[ci]
			switch {
			case ns && nd:
				m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardBoth.Energy(msg.Size))
			case ns:
				m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardSrc.Energy(msg.Size))
			case nd:
				m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardDst.Energy(msg.Size))
			}
		}
		if reachable && !faulted {
			m.delivered++
			dst.Receive(msg)
		}
	})
}

// sendBrute is the completion body of the pairwise point-to-point scan.
func (m *Medium) sendBrute(src, dst Peer, msg Message, now time.Duration) {
	reachable := dst.Connected() && m.inRange(src, dst, now)
	faulted := false
	if reachable {
		m.meter.Charge(msg.To, EnergyP2PRecv, m.power.Recv.Energy(msg.Size))
		if m.faults != nil && m.faults.DropP2P(msg.Size, now) {
			faulted = true
			m.drops.Fault++
		}
	} else {
		m.drops.Unreachable++
	}
	for _, oid := range m.order {
		if oid == msg.From || oid == msg.To {
			continue
		}
		p := m.peers[oid]
		if !p.Connected() {
			continue
		}
		nearSrc := m.inRange(src, p, now)
		nearDst := reachable && m.inRange(dst, p, now)
		switch {
		case nearSrc && nearDst:
			m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardBoth.Energy(msg.Size))
		case nearSrc:
			m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardSrc.Energy(msg.Size))
		case nearDst:
			m.meter.Charge(oid, EnergyP2PDiscard, m.power.DiscardDst.Energy(msg.Size))
		}
	}
	if reachable && !faulted {
		m.delivered++
		dst.Receive(msg)
	}
}

// Stats reports message counts since creation; dropped sums every drop
// cause (see Drops for the breakdown).
func (m *Medium) Stats() (sent, delivered, dropped, bytesSent uint64) {
	return m.sent, m.delivered, m.drops.Total(), m.bytesSent
}

// Drops reports the per-cause drop counters.
func (m *Medium) Drops() DropCounts { return m.drops }
