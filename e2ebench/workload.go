package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// A workload is one simulation configuration the benchmark runs. Every
// simulated host is a closed loop: it issues its next request only after
// the previous one ends, plus exponential think time (Table II mean 1 s).
// README.md records why each workload was chosen.
type workload struct {
	name   string
	config func(seed int64) core.Config
	// slice is the simulated time one span of a timed run covers, sized
	// to 25-70 host milliseconds on a 2-vCPU Xeon VM.
	slice time.Duration
}

var workloads = []workload{
	{"grococa-n100", grococaN100, 10 * time.Second},
	{"grococa-n1000", grococaN1000, 500 * time.Millisecond},
	{"coca-churn", func(seed int64) core.Config { return churn(seed, core.SchemeCOCA, 10, 390) }, 50 * time.Second},
	{"sc-churn", func(seed int64) core.Config { return churn(seed, core.SchemeSC, 150, 2000) }, 250 * time.Second},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// grococaN100 is Table II as users run it: GroCoca, read-only, ideal
// channels.
func grococaN100(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scheme = core.SchemeGroCoca
	return cfg
}

// grococaN1000 scales GroCoca to 1000 hosts at Table II's density of 100
// hosts/km² and scales the MSS channels ×10, so per-host load matches
// N=100. The quota is short to fit the time budget, so caches stay cold
// and the downlink runs near 75%; README.md gives the trade-off.
func grococaN1000(seed int64) core.Config {
	cfg := grococaN100(seed)
	cfg.NumClients = 1000
	cfg.SpaceWidth, cfg.SpaceHeight = 3162, 3162
	cfg.ServerUplinkKbps *= 10
	cfg.ServerDownlinkKbps *= 10
	cfg.WarmupRequests = 2
	cfg.MeasuredRequests = 20
	return cfg
}

// churn is N=100 under data updates, disconnections, lossy channels,
// periodic MSS outages and host crashes, with the resilience policy on.
// Measurement starts when the last host ends its warm-up, and under churn
// that moment varies widely across seeds; a short warm-up keeps the
// measured request count steady.
func churn(seed int64, scheme core.Scheme, warmup, measured int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scheme = scheme
	cfg.WarmupRequests = warmup
	cfg.MeasuredRequests = measured
	cfg.DataUpdateRate = 5
	cfg.DiscProb = 0.05
	cfg.P2PLossProb = 0.05
	cfg.UplinkLossProb = 0.02
	cfg.DownlinkLossProb = 0.02
	cfg.ServerOutagePeriod = 60 * time.Second
	cfg.ServerOutageDuration = 5 * time.Second
	cfg.CrashMTBF = 120 * time.Second
	cfg.Resilience = resilience.DefaultPolicy()
	return cfg
}
