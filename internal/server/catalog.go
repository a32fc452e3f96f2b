// Package server implements the mobile support station (MSS): the data item
// catalog with the EWMA-based TTL consistency strategy of Section IV.F, the
// random data updater, the tightly-coupled group manager implementing the
// discovery Algorithms 1–3, and the FCFS request handling over the shared
// infrastructure channels.
package server

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// InfiniteTTL is assigned to items the MSS has never observed an update
// interval for (e.g. when the data update rate is zero); such copies never
// expire within any realistic simulation horizon.
const InfiniteTTL = 1000 * time.Hour

// Catalog is the MSS data store: NData equal-sized items, each with a last
// updated timestamp t_l and an EWMA update interval u_x re-estimated with
// weight α on each update.
type Catalog struct {
	k        *sim.Kernel
	itemSize int
	alpha    float64
	items    []catalogItem
	updates  uint64
	// demand counts pull requests per item, feeding the hybrid delivery
	// model's hot-set selection.
	demand []uint64
}

type catalogItem struct {
	lastUpdate time.Duration
	interval   stats.EWMA
}

// NewCatalog creates nData items of itemSize bytes with EWMA weight alpha.
func NewCatalog(k *sim.Kernel, nData, itemSize int, alpha float64) (*Catalog, error) {
	if nData <= 0 {
		return nil, fmt.Errorf("server: catalog size %d must be positive", nData)
	}
	if itemSize <= 0 {
		return nil, fmt.Errorf("server: item size %d must be positive", itemSize)
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("server: alpha %v outside [0, 1]", alpha)
	}
	c := &Catalog{
		k:        k,
		itemSize: itemSize,
		alpha:    alpha,
		items:    make([]catalogItem, nData),
		demand:   make([]uint64, nData),
	}
	for i := range c.items {
		c.items[i].interval = stats.NewEWMA(alpha)
	}
	return c, nil
}

// Len returns the number of items.
func (c *Catalog) Len() int { return len(c.items) }

// ItemSize returns the per-item size in bytes.
func (c *Catalog) ItemSize() int { return c.itemSize }

// Updates returns the number of updates applied so far.
func (c *Catalog) Updates() uint64 { return c.updates }

func (c *Catalog) valid(id workload.ItemID) bool {
	return id >= 0 && int(id) < len(c.items)
}

// Update applies a data update to the item now: the update interval EWMA
// observes t_c − t_l and t_l advances to now.
func (c *Catalog) Update(id workload.ItemID) {
	if !c.valid(id) {
		return
	}
	it := &c.items[id]
	now := c.k.Now()
	it.interval.Observe(float64(now - it.lastUpdate))
	it.lastUpdate = now
	c.updates++
}

// TTL returns the lifetime the MSS assigns to a copy retrieved now:
// max(u_x − (t_c − t_l), 0). Items with no observed update interval get
// InfiniteTTL.
func (c *Catalog) TTL(id workload.ItemID) time.Duration {
	if !c.valid(id) {
		return 0
	}
	it := &c.items[id]
	if !it.interval.Set() {
		return InfiniteTTL
	}
	ttl := time.Duration(it.interval.Value()) - (c.k.Now() - it.lastUpdate)
	if ttl < 0 {
		ttl = 0
	}
	return ttl
}

// UpdatedSince reports whether the item has been updated after t, the
// validation test against a client's retrieve time t_r.
func (c *Catalog) UpdatedSince(id workload.ItemID, t time.Duration) bool {
	if !c.valid(id) {
		return false
	}
	return c.items[id].lastUpdate > t
}

// ReviseStale implements the periodic re-examination of Section IV.F: any
// item whose silence exceeds its estimated update interval has the interval
// EWMA observe the elapsed silence, without advancing t_l.
func (c *Catalog) ReviseStale() {
	now := c.k.Now()
	for i := range c.items {
		it := &c.items[i]
		if !it.interval.Set() {
			continue
		}
		if silence := now - it.lastUpdate; float64(silence) > it.interval.Value() {
			it.interval.Observe(float64(silence))
		}
	}
}

// RecordDemand counts one pull request for the item.
func (c *Catalog) RecordDemand(id workload.ItemID) {
	if c.valid(id) {
		c.demand[id]++
	}
}

// Demand returns the accumulated pull-request count for the item.
func (c *Catalog) Demand(id workload.ItemID) uint64 {
	if !c.valid(id) {
		return 0
	}
	return c.demand[id]
}

// TopDemand returns the n most requested items, most popular first. Ties
// break by item ID so the selection is deterministic.
func (c *Catalog) TopDemand(n int) []workload.ItemID {
	if n <= 0 {
		return nil
	}
	if n > len(c.items) {
		n = len(c.items)
	}
	ids := make([]workload.ItemID, len(c.items))
	for i := range ids {
		ids[i] = workload.ItemID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := c.demand[ids[a]], c.demand[ids[b]]
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	return ids[:n]
}

// Updater drives random item updates at a fixed aggregate rate and the
// periodic stale-interval revision.
type Updater struct {
	k       *sim.Kernel
	catalog *Catalog
	rng     *sim.RNG
	// RatePerSecond is DataUpdateRate: items updated per second across the
	// whole catalog. Zero disables updates.
	rate float64
	// reviseEvery is the stale revision period.
	reviseEvery time.Duration
	running     bool
}

// NewUpdater creates a stopped updater.
func NewUpdater(k *sim.Kernel, catalog *Catalog, ratePerSecond float64, reviseEvery time.Duration, rng *sim.RNG) (*Updater, error) {
	if ratePerSecond < 0 {
		return nil, fmt.Errorf("server: negative update rate %v", ratePerSecond)
	}
	if reviseEvery <= 0 {
		return nil, fmt.Errorf("server: revise period %v must be positive", reviseEvery)
	}
	return &Updater{k: k, catalog: catalog, rng: rng, rate: ratePerSecond, reviseEvery: reviseEvery}, nil
}

// Start begins the update and revision processes.
func (u *Updater) Start() {
	if u.running {
		return
	}
	u.running = true
	if u.rate > 0 {
		u.scheduleNext()
		u.k.Schedule(u.reviseEvery, u.reviseLoop)
	}
}

func (u *Updater) scheduleNext() {
	mean := time.Duration(float64(time.Second) / u.rate)
	u.k.Schedule(u.rng.Exp(mean), func() {
		u.catalog.Update(workload.ItemID(u.rng.Intn(u.catalog.Len())))
		u.scheduleNext()
	})
}

func (u *Updater) reviseLoop() {
	u.catalog.ReviseStale()
	u.k.Schedule(u.reviseEvery, u.reviseLoop)
}
