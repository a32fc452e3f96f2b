package integration

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// TestSpatialIndexEquivalence is the PR-7 index-equivalence guard: for every
// scheme, with and without a fault plan, a full simulation run with the
// uniform-grid spatial index (the default) must produce byte-identical
// Results to the same run with Config.BruteForceReachability set — the
// pairwise O(N²) scan the index replaced.
//
// Equality is asserted on the canonical JSON digest of core.Results, the
// same canonicalization the seed-digest goldens pin, so "equivalent" means
// every metric, counter, and energy total matches to the bit: the index may
// only change how reachability is computed, never what any simulation
// observes. Combined with TestSeedDigest (whose goldens predate the index),
// this proves grid == brute == the pre-index baseline.
func TestSpatialIndexEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulations in -short mode")
	}
	for _, c := range digestCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := digestConfig(c)
			grid, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg = digestConfig(c)
			cfg.BruteForceReachability = true
			brute, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gd, bd := resultsDigest(t, grid), resultsDigest(t, brute)
			if gd != bd {
				t.Errorf("spatial index changed simulation results:\n  grid  %s\n  brute %s\n"+
					"the index must be observationally invisible; repro: %s (add BruteForceReachability)",
					gd, bd, reproCommand(c))
			}
		})
	}
}

// churnConfig is the churn twin's run: more hosts than the digest matrix,
// so several motion groups interleave their draws, under the churn mix of
// the coca-churn benchmark workload — disconnections and crashes (which
// reach the medium through ConnectivityChanged), data updates, lossy
// channels, periodic MSS outages and the resilience policy.
func churnConfig(scheme core.Scheme, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Seed = seed
	cfg.NumClients = 64
	cfg.WarmupRequests = 10
	cfg.MeasuredRequests = 30
	cfg.DataUpdateRate = 5
	cfg.DiscProb = 0.05
	cfg.P2PLossProb = 0.05
	cfg.UplinkLossProb = 0.02
	cfg.DownlinkLossProb = 0.02
	cfg.ServerOutagePeriod = 20 * time.Second
	cfg.ServerOutageDuration = 5 * time.Second
	cfg.CrashMTBF = 30 * time.Second
	cfg.Resilience = resilience.DefaultPolicy()
	return cfg
}

// TestSpatialIndexEquivalenceChurn is the index twin under topology churn,
// which the loss-only digest matrix never exercises: the indexed medium
// must leave hosts that fall due while disconnected unsampled, and sample
// the others in brute-force order across many motion groups. Grid and
// brute-force runs must give byte-identical Results. A reconnecting host
// beacons at once and so resamples itself, so a missed re-queue on
// ConnectivityChanged rarely shows here; TestRPGMTrafficGridMatchesBrute
// in internal/network pins that directly.
func TestSpatialIndexEquivalenceChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulations in -short mode")
	}
	for _, scheme := range []core.Scheme{core.SchemeCOCA, core.SchemeGroCoca} {
		for seed := int64(1); seed <= 3; seed++ {
			scheme, seed := scheme, seed
			t.Run(fmt.Sprintf("%s/seed=%d", strings.ToLower(scheme.String()), seed), func(t *testing.T) {
				checkChurnTwin(t, scheme, seed)
			})
		}
	}
}

func checkChurnTwin(t *testing.T, scheme core.Scheme, seed int64) {
	grid, err := core.Run(churnConfig(scheme, seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(scheme, seed)
	cfg.BruteForceReachability = true
	brute, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := grid.Faults; f.Crashes == 0 || f.OutageSeconds == 0 {
		t.Fatalf("churn run saw too little churn: %+v", f)
	}
	if gd, bd := resultsDigest(t, grid), resultsDigest(t, brute); gd != bd {
		t.Errorf("spatial index changed simulation results under churn:\n  grid  %s\n  brute %s", gd, bd)
	}
}
