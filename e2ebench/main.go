// Command e2ebench is the end-to-end benchmark of the simulator. It runs
// one workload (see workload.go) one simulation at a time on one
// goroutine, times set-up (core.New) and the run from outside the
// program, checks every run's outputs, and prints one JSON object as the
// last line of standard output.
//
// Each invocation first makes a reference run with core.Simulation.Run,
// which gives the simulated metrics and the output digest every later run
// must match. With -trace 0 it then makes timed runs, driven in spans of
// simulated time with a calibration step between spans, and reports the
// end-to-end metrics (see README.md for how the host times are derived).
// With -trace 1 it alternates timed runs with traced runs of the same
// workload and seed — CPU-profiled, driven one simulated second at a time
// — and reports per-layer metrics: each internal package's share of the
// CPU samples, and counts read from the program's existing accessors.
//
// Usage (build it with run.sh, which also sets up the Go build cache):
//
//	e2ebench -workload grococa-n100 -seed 1 -seconds 25 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// minSetups is how many times set-up is timed per invocation at least;
// setup_s is their median.
const minSetups = 15

// minRuns is how many timed runs an invocation makes at least.
const minRuns = 3

// traceSlice is the simulated time one traced Kernel.Run call covers.
const traceSlice = time.Second

// layers are the internal packages on the simulated path, in the order
// the per-layer table prints them.
var layers = []string{
	"sim", "mobility", "geo", "network", "ndp", "client", "strategy",
	"cache", "bloom", "server", "stats", "workload", "resilience", "core",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "grococa-n100", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed (development seed 1, held-out seed 7)")
	seconds := fs.Int("seconds", 25, "host seconds of measurement")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	outDir := fs.String("out", "", "directory for the traced run's spans (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: want -workload, -seed, -seconds >= 1 and -trace 0|1, no arguments")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	b := &bench{name: w.name, seed: *seed, cfg: w.config(*seed), log: stderr}
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	if *trace == 0 {
		metrics, err = b.endToEnd(budget, w)
	} else {
		metrics, err = b.perLayer(budget, w, *outDir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	b.print(metrics)
	out, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// bench runs one workload and seed, and counts the runs whose outputs
// fail their checks.
type bench struct {
	name string
	seed int64
	cfg  core.Config
	log  io.Writer

	attempted, failed int
	digest            string // of the first run; every later run must match

	cal *calibration // when set, steps after every span
}

// verify applies the output checks and the determinism check to one run;
// problems holds any the caller found already.
func (b *bench) verify(kind string, o outputs, problems ...string) {
	b.attempted++
	if p := o.check(); p != "" {
		problems = append(problems, p)
	}
	d := o.digest()
	if b.digest == "" {
		b.digest = d
		fmt.Fprintf(b.log, "digest %s seed=%d %s\n", b.name, b.seed, d)
	} else if d != b.digest {
		problems = append(problems, fmt.Sprintf("digest %s differs from the first run's %s", d, b.digest))
	}
	if len(problems) > 0 {
		b.failed++
		fmt.Fprintf(b.log, "FAILED %s run: %s\n", kind, strings.Join(problems, "; "))
	}
}

// reference is the run users make: the workload assembled and run once
// with core.Simulation.Run. It warms the process up, supplies the Results
// and allocation counts the per-layer metrics read, and sets the digest
// that every timed and traced run must match.
type reference struct {
	res        core.Results
	out        outputs
	mallocs    uint64
	allocBytes uint64
	tcgMean    float64
}

func (b *bench) reference() (reference, error) {
	runtime.GC()
	s, err := core.New(b.cfg)
	if err != nil {
		return reference{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := s.Run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return reference{}, err
	}
	o := observe(s, res.Completed)
	if res.Events != o.Events || res.Requests != o.Requests || res.SimTime != o.SimTime {
		b.verify("reference", o, "Results disagree with the simulation's accessors")
	} else {
		b.verify("reference", o)
	}
	var tcg int
	for _, h := range s.Hosts() {
		tcg += h.TCGSize()
	}
	return reference{
		res: res, out: o,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		tcgMean:    float64(tcg) / float64(len(s.Hosts())),
	}, nil
}

// span is one slice of a driven run: one Kernel.Run call.
type span struct {
	Run      int     `json:"run"`
	SimEndS  float64 `json:"sim_end_s"`
	HostMs   float64 `json:"host_ms"`
	Events   uint64  `json:"events"`
	Requests uint64  `json:"requests"`
	Pending  int     `json:"pending"`
}

// driven is one run made by drive.
type driven struct {
	setup, wall time.Duration
	spans       []span
}

// traced drives one run under a CPU profile covering set-up and run, and
// returns the run and the profile's stacks.
func (b *bench) traced(run int, limit time.Duration) (driven, []stack, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return driven{}, nil, err
	}
	d, err := b.drive("traced", run, traceSlice, limit)
	pprof.StopCPUProfile()
	if err != nil {
		return driven{}, nil, err
	}
	stacks, err := parseProfile(prof.Bytes())
	return d, stacks, err
}

// setup times core.New after a GC, so that no set-up or run pays for
// the last one's garbage.
func (b *bench) setup() (*core.Simulation, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := core.New(b.cfg)
	return s, time.Since(t0), err
}

// drive times core.New, then runs the simulation the way
// core.Simulation.Run does — Host.Start, then Kernel.Run — but in
// horizons slice apart, until the kernel stops or limit passes. Each
// horizon is one span; Host.Start is timed with the first. The
// calibration steps between spans are not timed.
func (b *bench) drive(kind string, run int, slice, limit time.Duration) (driven, error) {
	s, setup, err := b.setup()
	if err != nil {
		return driven{}, err
	}
	k, c := s.Kernel(), s.Collector()
	var (
		spans []span
		wall  time.Duration
	)
	t0 := time.Now()
	for _, h := range s.Hosts() {
		h.Start()
	}
	completed := false
	for t := slice; ; t += slice {
		events, requests := k.Processed(), c.Requests()
		err := k.Run(t)
		host := time.Since(t0)
		wall += host
		spans = append(spans, span{
			Run:      run,
			SimEndS:  k.Now().Seconds(),
			HostMs:   float64(host) / float64(time.Millisecond),
			Events:   k.Processed() - events,
			Requests: c.Requests() - requests,
			Pending:  k.Pending(),
		})
		if errors.Is(err, sim.ErrStopped) {
			completed = true
			break
		}
		if err != nil {
			return driven{}, err
		}
		if t > limit {
			break
		}
		if b.cal != nil {
			b.cal.step()
		}
		t0 = time.Now()
	}
	b.verify(kind, observe(s, completed))
	return driven{setup: setup, wall: wall, spans: spans}, nil
}

// fastest estimates one run's host time from repeated runs of the same
// workload and seed. Those repeat event for event, so span i of every run
// does the same work; the estimate is the sum over i of span i's shortest
// host time. Host speed on a shared machine drifts, and each span's
// minimum keeps the runs' fastest stretches.
func fastest(runs []driven) (time.Duration, error) {
	best := make([]float64, len(runs[0].spans))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for _, r := range runs {
		if len(r.spans) != len(best) {
			return 0, fmt.Errorf("a run has %d spans, the first %d", len(r.spans), len(best))
		}
		for i, s := range r.spans {
			best[i] = min(best[i], s.HostMs)
		}
	}
	var ms float64
	for _, v := range best {
		ms += v
	}
	return time.Duration(ms * float64(time.Millisecond)), nil
}

// endToEnd makes the reference run, then timed runs until the budget is
// spent.
func (b *bench) endToEnd(budget time.Duration, w workload) (map[string]metric, error) {
	start := time.Now()
	ref, err := b.reference()
	if err != nil {
		return nil, err
	}
	limit := ref.out.SimTime + w.slice
	b.cal = newCalibration()
	var runs []driven
	for len(runs) < minRuns || time.Since(start)+runs[len(runs)-1].setup+runs[len(runs)-1].wall <= budget {
		r, err := b.drive("timed", len(runs), w.slice, limit)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	var setups, walls []float64
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
	}
	for len(setups) < minSetups {
		_, d, err := b.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	best, err := fastest(runs)
	if err != nil {
		return nil, err
	}
	scale := b.cal.scale()
	wall := best.Seconds() * scale
	fmt.Fprintf(b.log, "%d timed runs of %d spans, wall s %.4g, fastest %.4g; %d set-ups, median %.4g s; %d calibration steps, scale %.4f\n",
		len(runs), len(runs[0].spans), walls, best.Seconds(), len(setups), median(setups), len(b.cal.times), scale)
	o := ref.res
	return map[string]metric{
		"wall_s":              {wall, "s"},
		"setup_s":             {median(setups), "s"},
		"events_per_s":        {float64(ref.out.Events) / wall, "1/s"},
		"host_us_per_request": {1e6 * wall / float64(ref.out.Issued), "us"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"sim_latency_ms":      {float64(o.MeanLatency) / float64(time.Millisecond), "ms"},
		"sim_server_ratio":    {o.ServerRequestRatio, "ratio"},
	}, nil
}

// perLayer alternates untraced and traced runs until the budget is spent,
// writes the spans to outDir, and reports the per-layer metrics.
func (b *bench) perLayer(budget time.Duration, w workload, outDir string) (map[string]metric, error) {
	start := time.Now()
	ref, err := b.reference()
	if err != nil {
		return nil, err
	}
	limit := ref.out.SimTime + max(w.slice, traceSlice)
	var (
		plainWalls, tracedWalls []float64
		spans                   []span
		stacks                  []stack
	)
	for last := time.Duration(0); len(tracedWalls) == 0 || time.Since(start)+last <= budget; {
		u, err := b.drive("timed", len(plainWalls), w.slice, limit)
		if err != nil {
			return nil, err
		}
		t, st, err := b.traced(len(tracedWalls), limit)
		if err != nil {
			return nil, err
		}
		plainWalls = append(plainWalls, u.wall.Seconds())
		tracedWalls = append(tracedWalls, t.wall.Seconds())
		spans = append(spans, t.spans...)
		stacks = append(stacks, st...)
		last = u.setup + u.wall + t.setup + t.wall
	}
	if outDir != "" {
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, b.seed)), spans); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(b.log, "%d untraced and %d traced runs\n", len(plainWalls), len(tracedWalls))

	m := map[string]metric{}
	shares := selfShares(stacks)
	for _, l := range layers {
		m[l+".self_pct"] = metric{shares[l], "%"}
		delete(shares, l)
	}
	m["runtime.gc_pct"] = metric{shares[gcBucket], "%"}
	delete(shares, gcBucket)
	var other float64
	for _, v := range shares { // off-path packages and frames outside the program
		other += v
	}
	m["other.self_pct"] = metric{other, "%"}

	var chunkMs []float64
	heapPeak := 0
	for _, s := range spans {
		chunkMs = append(chunkMs, s.HostMs)
		heapPeak = max(heapPeak, s.Pending)
	}
	r, o, aux := ref.res, ref.out, ref.out.Aux
	events := float64(o.Events)
	localMisses := float64(o.Requests - o.LocalHits)
	m["trace.overhead_pct"] = metric{100 * (median(tracedWalls)/median(plainWalls) - 1), "%"}
	m["sim.events"] = metric{events, "count"}
	m["sim.events_per_request"] = metric{events / float64(o.Issued), "count"}
	m["sim.heap_peak"] = metric{float64(heapPeak), "count"}
	m["sim.chunk_ms_p50"] = metric{quantile(chunkMs, 0.5), "ms"}
	m["sim.chunk_ms_p99"] = metric{quantile(chunkMs, 0.99), "ms"}
	m["server.requests"] = metric{float64(o.MSS[0]), "count"}
	m["server.validations"] = metric{float64(o.MSS[1]), "count"}
	m["server.loc_updates"] = metric{float64(o.MSS[3]), "count"}
	m["server.tcg_mean_size"] = metric{ref.tcgMean, "count"}
	m["bloom.sig_exchanges"] = metric{float64(aux.SigExchanges), "count"}
	m["bloom.sig_bytes"] = metric{float64(aux.SigBytes), "B"}
	m["bloom.filter_bypass_ratio"] = metric{ratio(float64(aux.FilterBypasses), localMisses), "ratio"}
	m["client.server_rescues"] = metric{float64(aux.ServerRescues), "count"}
	m["client.retrieve_retries"] = metric{float64(aux.RetrieveRetries), "count"}
	m["client.hedged_retrieves"] = metric{float64(aux.HedgedRetrieves), "count"}
	m["client.breaker_fast_fails"] = metric{float64(aux.BreakerFastFails), "count"}
	m["client.crashes"] = metric{float64(aux.Crashes), "count"}
	m["client.search_useful_ratio"] = metric{ratio(float64(o.GlobalHits), float64(o.GlobalHits+aux.PeerTimeouts)), "ratio"}
	m["cache.local_hit_ratio"] = metric{r.LocalHitRatio, "ratio"}
	m["cache.admission_skips"] = metric{float64(aux.AdmissionSkips), "count"}
	m["cache.coop_evictions"] = metric{float64(aux.CoopEvictions), "count"}
	m["network.p2p_drops"] = metric{float64(r.Faults.P2PDrops.Total()), "count"}
	m["network.link_drops"] = metric{float64(r.Faults.LinkDrops.Total()), "count"}
	m["network.downlink_util"] = metric{r.DownlinkUtilization, "ratio"}
	m["runtime.allocs_per_event"] = metric{float64(ref.mallocs) / events, "count"}
	m["runtime.alloc_bytes_per_event"] = metric{float64(ref.allocBytes) / events, "B"}
	m["sim_gch_ratio"] = metric{r.GlobalHitRatio, "ratio"}
	return m, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// print writes the metrics to the log, one per line, sorted by name.
func (b *bench) print(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b.log, "%s seed=%d: %d runs attempted, %d failed\n", b.name, b.seed, b.attempted, b.failed)
	for _, n := range names {
		fmt.Fprintf(b.log, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
