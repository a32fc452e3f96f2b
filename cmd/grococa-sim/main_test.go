package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// tinyArgs shrink the run so command tests finish in milliseconds.
var tinyArgs = []string{
	"-clients", "8", "-ndata", "400", "-accessrange", "80",
	"-cachesize", "15", "-warmup", "5", "-requests", "10",
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	if err := run([]string{"-scheme", "bogus"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunRejectsUnknownDelivery(t *testing.T) {
	if err := run([]string{"-delivery", "bogus"}); err == nil {
		t.Error("unknown delivery model accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if err := run([]string{"-clients", "0"}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunEachScheme(t *testing.T) {
	for _, scheme := range []string{"sc", "coca", "grococa"} {
		args := append([]string{"-scheme", scheme, "-v"}, tinyArgs...)
		if err := run(args); err != nil {
			t.Errorf("scheme %s: %v", scheme, err)
		}
	}
}

func TestRunEachDelivery(t *testing.T) {
	for _, d := range []string{"pull", "push", "hybrid"} {
		args := append([]string{"-scheme", "sc", "-delivery", d}, tinyArgs...)
		if err := run(args); err != nil {
			t.Errorf("delivery %s: %v", d, err)
		}
	}
}

func TestRunReplicated(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = w
	args := append([]string{"-scheme", "grococa", "-reps", "3", "-parallel", "4"}, tinyArgs...)
	runErr := run(args)
	os.Stdout = oldStdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{"rep 0:", "rep 2:", "mean:", "sd:", "(n=3 reps)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("replicated output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadReps(t *testing.T) {
	if err := run(append([]string{"-reps", "0"}, tinyArgs...)); err == nil {
		t.Error("-reps 0 accepted")
	}
}

func TestRunRejectsTraceWithReps(t *testing.T) {
	args := append([]string{"-reps", "2", "-tracefile", filepath.Join(t.TempDir(), "t.csv")}, tinyArgs...)
	if err := run(args); err == nil {
		t.Error("-tracefile with -reps > 1 accepted")
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	args := append([]string{"-scheme", "coca", "-tracefile", path}, tinyArgs...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines, want header + rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "sim_time_s,host,outcome,latency_ms") {
		t.Errorf("trace header = %q", lines[0])
	}
	if !strings.Contains(string(data), "local-hit") && !strings.Contains(string(data), "server-request") {
		t.Error("trace rows missing outcomes")
	}
}

func TestRunRejectsUnwritableTrace(t *testing.T) {
	args := append([]string{"-tracefile", "/nonexistent-dir/trace.csv"}, tinyArgs...)
	if err := run(args); err == nil {
		t.Error("unwritable trace path accepted")
	}
}

// TestRunWithFrozenClock pins the injectable wall clock and checks the
// wall-time figure in the summary is computed from it (0s when frozen) —
// the seam the wallclock lint allowlist depends on.
func TestRunWithFrozenClock(t *testing.T) {
	out := captureRun(t, append([]string{"-scheme", "sc"}, tinyArgs...))
	if !strings.Contains(out, "wall=0s") {
		t.Errorf("frozen clock did not zero the wall-time figure:\n%s", out)
	}
}

// captureRun runs the command under a frozen wall clock and returns its
// standard output, which is then a pure function of the flags.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	oldClock := wallClock
	wallClock = clock.Fixed{T: time.Unix(1700000000, 0)}
	defer func() { wallClock = oldClock }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = oldStdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestProfileFlagsKeepResults checks that -cpuprofile and -memprofile
// write non-empty profiles and change nothing the simulation computes:
// the Results digest of a profiled run equals the unprofiled one, and so
// does the command's full -v output.
func TestProfileFlagsKeepResults(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")

	cfg := core.DefaultConfig()
	cfg.NumClients, cfg.NData, cfg.AccessRange, cfg.CacheSize = 8, 400, 80, 15
	cfg.WarmupRequests, cfg.MeasuredRequests = 5, 10
	digest := func() string {
		t.Helper()
		r, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	plain := digest()
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	profiled := digest()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if plain != profiled {
		t.Errorf("profiling changed the Results digest: %s, profiled %s", plain, profiled)
	}

	args := append([]string{"-scheme", "grococa", "-v"}, tinyArgs...)
	want := captureRun(t, args)
	got := captureRun(t, append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...))
	if got != want {
		t.Errorf("profile flags changed the output:\n%s\nwant:\n%s", got, want)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestRunRejectsUnwritableProfile(t *testing.T) {
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		args := append([]string{flag, "/nonexistent-dir/p.pprof"}, tinyArgs...)
		if err := run(args); err == nil {
			t.Errorf("unwritable %s path accepted", flag)
		}
	}
}
