// Package ndp implements the neighbor discovery protocol COCA assumes: each
// mobile host broadcasts a periodic hello beacon; a peer that has not been
// heard from for a configurable number of beacon cycles is considered to
// have suffered a link failure. Link-up and link-down transitions are
// reported through callbacks, which GroCoca's signature exchange protocol
// uses to detect TCG members appearing, departing, and reconnecting.
//
// Cost model: each beacon is one medium Broadcast, so a population of N
// hosts beaconing on a shared interval completes N transmissions per
// period. With the medium's spatial index each completion costs O(k) for
// k in-range hosts plus the hosts due for resampling, keeping a beacon
// tick at O(N·k) instead of the pairwise scan's O(N²).
package ndp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

// Config parameterises one node's NDP instance.
type Config struct {
	// Interval is the beacon period.
	Interval time.Duration
	// MissedCycles is how many silent beacon periods constitute a link
	// failure.
	MissedCycles int
	// OnUp is invoked when a new neighbor is first heard. Optional.
	OnUp func(network.NodeID)
	// OnDown is invoked when a known neighbor times out or the protocol
	// stops. Optional.
	OnDown func(network.NodeID)
	// Beacon, when set, supplies "other useful information" carried by
	// each hello message — GroCoca piggybacks its pending cache-signature
	// deltas here. It returns the payload and the extra bytes it adds to
	// the beacon size.
	Beacon func() (payload any, extraBytes int)
}

// Protocol is one mobile host's NDP state: its beacon loop and neighbor
// table.
type Protocol struct {
	k        *sim.Kernel
	medium   *network.Medium
	id       network.NodeID
	cfg      Config
	lastSeen map[network.NodeID]time.Duration
	running  bool
	tick     *sim.Event
	// expired is the expiry sweep's scratch buffer, reused across beacon
	// periods so steady-state expiry does not regrow it.
	expired []network.NodeID
}

// New creates a stopped protocol instance for the given node.
func New(k *sim.Kernel, medium *network.Medium, id network.NodeID, cfg Config) (*Protocol, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("ndp: interval %v must be positive", cfg.Interval)
	}
	if cfg.MissedCycles < 1 {
		return nil, fmt.Errorf("ndp: missed cycles %d must be at least 1", cfg.MissedCycles)
	}
	return &Protocol{
		k:        k,
		medium:   medium,
		id:       id,
		cfg:      cfg,
		lastSeen: make(map[network.NodeID]time.Duration),
	}, nil
}

// Start begins beaconing and neighbor expiry. Starting a running protocol
// is a no-op.
func (p *Protocol) Start() {
	if p.running {
		return
	}
	p.running = true
	p.loop()
}

// Stop halts beaconing and clears the neighbor table, reporting each known
// neighbor as down. A host calls Stop when it disconnects from the network.
func (p *Protocol) Stop() {
	if !p.running {
		return
	}
	p.running = false
	if p.tick != nil {
		p.tick.Cancel()
		p.tick = nil
	}
	ids := sortedIDs(p.lastSeen)
	p.lastSeen = make(map[network.NodeID]time.Duration)
	if p.cfg.OnDown != nil {
		for _, id := range ids {
			p.cfg.OnDown(id)
		}
	}
}

// Running reports whether the protocol is beaconing.
func (p *Protocol) Running() bool { return p.running }

func (p *Protocol) loop() {
	if !p.running {
		return
	}
	msg := network.Message{
		Kind: network.KindBeacon,
		From: p.id,
		Size: network.BeaconSize,
	}
	if p.cfg.Beacon != nil {
		payload, extra := p.cfg.Beacon()
		msg.Payload = payload
		msg.Size += extra
	}
	p.medium.Broadcast(msg)
	p.expire()
	p.tick = p.k.Schedule(p.cfg.Interval, p.loop)
}

// expire drops neighbors that have been silent too long. Expiry callbacks
// fire in ID order so simulations replay deterministically.
func (p *Protocol) expire() {
	deadline := time.Duration(p.cfg.MissedCycles) * p.cfg.Interval
	now := p.k.Now()
	expired := p.expired[:0]
	for id, seen := range p.lastSeen {
		if now-seen > deadline {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	p.expired = expired
	for _, id := range expired {
		delete(p.lastSeen, id)
		if p.cfg.OnDown != nil {
			p.cfg.OnDown(id)
		}
	}
}

// sortedIDs returns the map keys in ascending order.
func sortedIDs(m map[network.NodeID]time.Duration) []network.NodeID {
	ids := make([]network.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// HandleBeacon records a beacon heard from a peer. The owning host routes
// KindBeacon messages here from its Receive method.
func (p *Protocol) HandleBeacon(from network.NodeID) {
	if !p.running {
		return
	}
	_, known := p.lastSeen[from]
	p.lastSeen[from] = p.k.Now()
	if !known && p.cfg.OnUp != nil {
		p.cfg.OnUp(from)
	}
}

// Knows reports whether the peer is currently in the neighbor table.
func (p *Protocol) Knows(id network.NodeID) bool {
	_, ok := p.lastSeen[id]
	return ok
}

// NeighborCount returns the size of the neighbor table.
func (p *Protocol) NeighborCount() int { return len(p.lastSeen) }
