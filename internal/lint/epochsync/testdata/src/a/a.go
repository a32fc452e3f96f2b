// Package a exercises the epochsync analyzer: notified and unnotified
// writes to Connected()-affecting state, coverage through helpers on both
// the read and the notify side, constructor exemption, and unrelated
// fields staying unflagged.
package a

// Medium stands in for the network medium's resample queue.
type Medium struct{ requeued []int }

// ConnectivityChanged re-queues the host.
func (m *Medium) ConnectivityChanged(id int) { m.requeued = append(m.requeued, id) }

// Peer is a connectable endpoint; Connected reads online directly and
// failures through a helper, so both are connectivity fields.
type Peer struct {
	id       int
	m        *Medium
	online   bool
	failures int
	traffic  int // not read by Connected: never flagged
}

// Connected implements the connectivity contract.
func (p *Peer) Connected() bool { return p.online && p.healthy() }

func (p *Peer) healthy() bool { return p.failures < 3 }

// NewPeer initializes connectivity state through a composite literal:
// exempt, registration reads the initial connectivity itself.
func NewPeer(id int, m *Medium) *Peer {
	return &Peer{id: id, m: m, online: true}
}

// Disconnect pairs the write with the notification: no diagnostic.
func (p *Peer) Disconnect() {
	p.online = false
	p.m.ConnectivityChanged(p.id)
}

// Fail notifies through a same-package helper: no diagnostic.
func (p *Peer) Fail() {
	p.failures++
	p.notify()
}

func (p *Peer) notify() { p.m.ConnectivityChanged(p.id) }

// SilentDrop writes a connectivity field with no notification anywhere on
// its path.
func (p *Peer) SilentDrop() {
	p.online = false // want "write to connectivity field online without a Medium.ConnectivityChanged notification"
}

// SilentWear uses a compound write; still a connectivity write.
func (p *Peer) SilentWear() {
	p.failures++ // want "write to connectivity field failures without a Medium.ConnectivityChanged notification"
}

// Account writes only unrelated state: no diagnostic.
func (p *Peer) Account(bytes int) {
	p.traffic += bytes
}

// ReplayState is a deliberate unnotified write: the analyzer still reports
// it (the want below), and the //lint:ignore directive silences it in the
// driver, which is where suppression is applied.
func (p *Peer) ReplayState(online bool) {
	//lint:ignore epochsync restore-time replay before the peer is registered with any medium
	p.online = online // want "write to connectivity field online"
}
