package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// outputs are a run's public outputs, read through Simulation's
// accessors so that a run driven slice by slice (which has no Results)
// yields the same record as core.Simulation.Run.
type outputs struct {
	Completed   bool
	Outstanding int
	Requests    uint64
	Issued      uint64 // requests all hosts finished, warm-up included
	MeanLatency time.Duration
	P50, P95    time.Duration
	P99         time.Duration
	LocalHits   uint64
	GlobalHits  uint64
	ServerReqs  uint64
	Failures    uint64
	Events      uint64
	SimTime     time.Duration
	MSS         [4]uint64 // requests, validations, refreshes, location updates
	Aux         client.AuxCounters
}

func observe(s *core.Simulation, completed bool) outputs {
	c := s.Collector()
	var o outputs
	o.Completed = completed
	o.Outstanding = s.OutstandingRequests()
	o.Requests = c.Requests()
	for _, h := range s.Hosts() {
		o.Issued += uint64(h.Completed())
	}
	o.MeanLatency = c.MeanLatency()
	o.P50 = c.LatencyQuantile(0.5)
	o.P95 = c.LatencyQuantile(0.95)
	o.P99 = c.LatencyQuantile(0.99)
	o.LocalHits = c.OutcomeCount(client.OutcomeLocalHit)
	o.GlobalHits = c.OutcomeCount(client.OutcomeGlobalHit)
	o.ServerReqs = c.OutcomeCount(client.OutcomeServerRequest)
	o.Failures = c.OutcomeCount(client.OutcomeFailure)
	o.Events = s.Kernel().Processed()
	o.SimTime = s.Kernel().Now()
	o.MSS[0], o.MSS[1], o.MSS[2], o.MSS[3] = s.MSS().Stats()
	o.Aux = c.Aux()
	return o
}

// digest hashes the outputs; two runs of one workload and seed must agree.
func (o outputs) digest() string {
	data, err := json.Marshal(o)
	if err != nil {
		panic(err) // outputs holds only numbers and bools
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// check returns the output checks the run fails, empty when it passes.
func (o outputs) check() string {
	var bad []string
	if !o.Completed {
		bad = append(bad, "run hit the safety horizon")
	}
	if o.Outstanding != 0 {
		bad = append(bad, fmt.Sprintf("%d hosts hold an in-flight request", o.Outstanding))
	}
	if sum := o.LocalHits + o.GlobalHits + o.ServerReqs + o.Failures; sum != o.Requests {
		bad = append(bad, fmt.Sprintf("outcomes sum to %d, not %d requests", sum, o.Requests))
	}
	if o.Requests == 0 {
		bad = append(bad, "no measured requests")
	}
	if !(o.P50 <= o.P95 && o.P95 <= o.P99) {
		bad = append(bad, fmt.Sprintf("latency quantiles out of order: p50 %v p95 %v p99 %v", o.P50, o.P95, o.P99))
	}
	return strings.Join(bad, "; ")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
