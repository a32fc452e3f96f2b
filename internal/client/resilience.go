package client

import (
	"time"

	"repro/internal/network"
	"repro/internal/resilience"
)

// This file is the client side of the resilience layer: the thin glue
// routing the request state machine's timeouts, retries and MSS exchanges
// through the policy engine of internal/resilience. Every helper is a
// no-op (or the byte-identical legacy arithmetic) when the policy is
// disabled, so the seed-digest goldens cannot move.

// resilienceOn reports whether the unified resilience policy governs this
// host's recovery paths.
func (h *Host) resilienceOn() bool { return h.cfg.Resilience.Enabled }

// deadlineExpired reports whether the outstanding request has outlived
// its propagated deadline.
func (h *Host) deadlineExpired(p *pendingRequest) bool {
	return h.resilienceOn() && h.k.Now() >= p.deadlineAt
}

// failDeadline terminates the request with the deadline-exceeded cause.
func (h *Host) failDeadline(p *pendingRequest) {
	h.collector.deadlineFailures++
	p.cause = "deadline-exceeded"
	h.complete(OutcomeFailure)
}

// capToDeadline bounds a timer duration to the request's remaining
// deadline (deadline propagation), floored at one millisecond so an
// already-expired deadline still fires a timer that performs the
// deadline check. Identity when the policy is off.
func (h *Host) capToDeadline(p *pendingRequest, d time.Duration) time.Duration {
	if !h.resilienceOn() {
		return d
	}
	if rem := p.deadlineAt - h.k.Now(); d > rem {
		d = rem
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// resilBackoff computes the policy backoff for the attempt, drawing the
// jitter variate from the host's dedicated resil-<id> RNG stream — one
// draw per backoff, and only when jitter is configured, so the stream
// position is itself deterministic.
func (h *Host) resilBackoff(base time.Duration, attempt int) time.Duration {
	var u float64
	if h.cfg.Resilience.Jitter > 0 {
		u = h.rngResil.Float64()
	}
	return h.cfg.Resilience.Backoff(base, attempt, u)
}

// allowRetrieveRetry decides whether another alternate-holder retrieve
// may be issued: against the unified budget under the policy, against
// the legacy per-mechanism limit otherwise.
func (h *Host) allowRetrieveRetry(p *pendingRequest) bool {
	if h.resilienceOn() {
		return p.budgetSpent < h.cfg.Resilience.RetryBudget
	}
	return p.retrieveAttempts < h.cfg.RetrieveRetryLimit
}

// retrieveBackoff returns the next retrieve timeout: the legacy doubling,
// or the policy's jittered exponential capped to the deadline.
func (h *Host) retrieveBackoff(p *pendingRequest) time.Duration {
	if !h.resilienceOn() {
		return h.dataTimeout() << uint(p.retrieveAttempts)
	}
	return h.capToDeadline(p, h.resilBackoff(h.dataTimeout(), p.retrieveAttempts))
}

// rescueTimeout returns the lost-MSS-exchange rescue timeout: the legacy
// queue-aware doubling, or the policy backoff over the same queue-aware
// base, capped to the deadline.
func (h *Host) rescueTimeout(p *pendingRequest) time.Duration {
	if !h.resilienceOn() {
		return h.serverRescueTimeout(p.serverAttempts)
	}
	return h.capToDeadline(p, h.resilBackoff(h.serverRescueTimeout(0), p.serverAttempts))
}

// spendRetryBudget charges one unit of the request's unified retry budget
// and feeds the budget-conservation invariant.
func (h *Host) spendRetryBudget(p *pendingRequest, kind string) {
	if !h.resilienceOn() {
		return
	}
	p.budgetSpent++
	h.resilSpent++
	if rs := h.resilSink(); rs != nil {
		rs.RetrySpent(h.k.Now(), h.id, p.seq, kind, p.budgetSpent, h.cfg.Resilience.RetryBudget)
	}
}

// serverGate asks the circuit breaker whether an MSS exchange may be
// sent. A half-open pass marks the exchange as the probe. When the
// breaker refuses, the request is resolved here — served stale or
// fast-failed — and the caller must not send.
func (h *Host) serverGate(p *pendingRequest, now time.Duration) bool {
	if h.breaker == nil {
		return true
	}
	if h.breaker.Allow(now) {
		if h.breaker.Current() == resilience.HalfOpen {
			h.breaker.BeginProbe(now)
			h.collector.breakerProbes++
		}
		return true
	}
	h.degrade(p, now)
	return false
}

// degrade resolves a request the open breaker refused to send: an
// expired cached copy within the staleness bound answers it (tagged for
// the audit staleness oracle via DegradedServe, deliberately bypassing
// HitServed whose TTL contract it violates), anything else is a fast
// failure.
func (h *Host) degrade(p *pendingRequest, now time.Duration) {
	pol := h.cfg.Resilience
	if pol.ServeStale {
		if e := h.cache.Peek(p.item); e != nil {
			expiresAt := e.RetrievedAt + e.TTL
			if pol.ServeStaleMaxAge == 0 || now-expiresAt <= pol.ServeStaleMaxAge {
				h.collector.serveStaleHits++
				if rs := h.resilSink(); rs != nil {
					rs.DegradedServe(now, h.id, p.item, e.RetrievedAt, expiresAt)
				}
				e.SingletTTL = h.cfg.ReplaceDelay
				p.cause = "serve-stale"
				h.complete(OutcomeLocalHit)
				return
			}
		}
	}
	h.collector.breakerFastFails++
	p.cause = "breaker-open"
	h.complete(OutcomeFailure)
}

// breakerSuccess records a completed MSS exchange with the breaker.
func (h *Host) breakerSuccess(now time.Duration) {
	if h.breaker != nil {
		h.breaker.Success(now)
	}
}

// armHedge schedules the hedged retrieve: after HedgeAfter of the data
// timeout without the data, a second retrieve races the first to the
// next-best untried holder. dataTimeout is the already-deadline-capped
// timer the hedge rides under.
func (h *Host) armHedge(p *pendingRequest, dataTimeout time.Duration) {
	pol := h.cfg.Resilience
	if !pol.Enabled || pol.HedgeAfter <= 0 || p.hedged {
		return
	}
	delay := time.Duration(float64(dataTimeout) * pol.HedgeAfter)
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	p.hedge = h.k.Schedule(delay, func() { h.hedgeFired(p) })
}

// hedgeFired issues the hedged retrieve. The first retrieve stays in
// flight: whichever data message arrives first completes the request
// (handleData matches on the flood key, not the provider).
func (h *Host) hedgeFired(p *pendingRequest) {
	if h.cur != p || p.phase != phaseWaitData || p.hedged {
		return
	}
	p.hedge = nil
	alt := p.nextHolder()
	if alt == nil {
		return
	}
	p.hedged = true
	p.tried[alt.Holder] = true
	h.collector.hedgedRetrieves++
	if rs := h.resilSink(); rs != nil {
		rs.HedgeIssued(h.k.Now(), h.id, p.seq, alt.Holder)
	}
	h.sendRouted(alt.Path, network.Message{
		Kind: network.KindRetrieve,
		From: h.id,
		Size: network.RetrieveSize,
		Payload: retrievePayload{
			Key:    alt.Key,
			Item:   alt.Item,
			Origin: h.id,
			Path:   alt.Path,
		},
	})
}

// serverRescueFired is the rescue-timer body. The legacy path re-sends
// until ServerRetryLimit is exhausted; the policy path first charges the
// failed exchange to the breaker, then walks deadline → budget →
// re-send, where the re-send re-enters the breaker gate (an exchange
// that just tripped it degrades instead of sending).
func (h *Host) serverRescueFired(p *pendingRequest, want phase, resend func()) {
	if h.cur != p || p.phase != want {
		return
	}
	if !h.resilienceOn() {
		if p.serverAttempts >= h.cfg.ServerRetryLimit {
			h.collector.rescueFailures++
			p.cause = "rescue-exhausted"
			h.complete(OutcomeFailure)
			return
		}
		p.serverAttempts++
		h.collector.serverRescues++
		resend()
		return
	}
	now := h.k.Now()
	if h.breaker != nil {
		h.breaker.Failure(now)
	}
	if h.deadlineExpired(p) {
		h.failDeadline(p)
		return
	}
	if p.budgetSpent >= h.cfg.Resilience.RetryBudget {
		h.collector.rescueFailures++
		p.cause = "rescue-exhausted"
		h.complete(OutcomeFailure)
		return
	}
	p.serverAttempts++
	h.collector.serverRescues++
	h.spendRetryBudget(p, "server-rescue")
	resend()
}
