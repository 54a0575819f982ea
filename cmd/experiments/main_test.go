package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"edcache/internal/bench"
	"edcache/internal/cli"
	"edcache/internal/experiments"
	"edcache/internal/sim"
	"edcache/internal/store"
	"edcache/internal/trace"
)

func TestListExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sizing", "fig3", "headline", "reliability", "a6-partition", "mc-sampling"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %q", name)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "yield", "-format", "json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"experiment": "yield"`) {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunWithTinyGridAndWorkers(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "headline,area", "-instructions", "2000", "-workers", "4", "-format", "csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "headline,scenario=A mode=HP") {
		t.Fatalf("CSV output missing headline rows:\n%s", out.String())
	}
}

func TestDeterministicOutputAcrossWorkers(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, workers := range []string{"1", "8"} {
		var out bytes.Buffer
		err := run([]string{"-run", "reliability,mc-sampling", "-trials", "100",
			"-workers", workers, "-seed", "5", "-format", "json"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatal("-workers 1 and -workers 8 output differ")
	}
}

// TestCPUProfile smokes -cpuprofile: the profile is written (a gzipped
// pprof protobuf) and stdout is byte-identical to a run without it.
func TestCPUProfile(t *testing.T) {
	args := []string{"-run", "headline,fig3", "-instructions", "5000", "-format", "json"}
	var plain, profiled bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := run(append(args, "-cpuprofile", path), &profiled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Fatal("-cpuprofile changed stdout")
	}
	prof, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("profile is not a gzipped pprof file (%d bytes)", len(prof))
	}
	if err := run([]string{"-run", "area", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir")}, &bytes.Buffer{}); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nonsense"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestTraceFileSweep drives the capture-then-sweep loop through the
// CLI: a serialised workload becomes file-backed grid points of the
// corpus sweeps.
func TestTraceFileSweep(t *testing.T) {
	w, err := bench.ByName("adpcm_c")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cap.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteV2(f, w.ScaledTo(2_000).Stream(), trace.V2Options{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-run", "corpus-miss", "-instructions", "2000",
		"-trace", path, "-format", "csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace:cap.trace") {
		t.Fatalf("sweep output missing the file-backed grid points:\n%s", out.String())
	}
	if err := run([]string{"-run", "corpus-miss", "-instructions", "2000",
		"-trace", filepath.Join(t.TempDir(), "missing.trace")}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// storeEntries lists the sealed checkpoint files under a -store dir,
// skipping the quarantine subtree.
func storeEntries(t *testing.T, dir string) []string {
	t.Helper()
	var entries []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "quarantine" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".res") {
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(entries)
	return entries
}

// TestStoreResumeByteIdentical is the driver-level durability contract:
// a sweep checkpointed through -store, then "killed" partway (simulated
// by deleting a slice of its checkpoints and corrupting another), must
// resume with -resume at a different worker count and produce output
// byte-identical to an uninterrupted run without any store at all.
func TestStoreResumeByteIdentical(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-run", "headline,area", "-instructions", "2000",
			"-seed", "3", "-format", "json"}, extra...)
	}
	var golden bytes.Buffer
	if err := run(args(), &golden); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var first bytes.Buffer
	if err := run(args("-store", dir, "-workers", "2"), &first); err != nil {
		t.Fatal(err)
	}
	if first.String() != golden.String() {
		t.Fatal("store-backed run differs from plain run")
	}
	entries := storeEntries(t, dir)
	if len(entries) < 4 {
		t.Fatalf("only %d checkpoints written, fixture too weak", len(entries))
	}

	// Simulate the killed sweep: some grid points never checkpointed,
	// one checkpoint torn by the crash.
	var survivors []string
	for i, p := range entries {
		if i%3 == 0 {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		survivors = append(survivors, p)
	}
	corrupt, err := os.ReadFile(survivors[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupt[len(corrupt)-1] ^= 0xFF
	if err := os.WriteFile(survivors[0], corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	if err := run(args("-store", dir, "-resume", "-workers", "5"), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != golden.String() {
		t.Fatal("resumed run differs from uninterrupted run")
	}
}

// TestStoreMissesPreviousModelRevision pins the store's "can only
// miss" promise across an intended output change: entries written under
// the previous model revision's scope — the same module version,
// options and seed — must not be served by -resume. The entries hold
// poisoned results, so a hit would show in the output as well as in
// the hit count.
func TestStoreMissesPreviousModelRevision(t *testing.T) {
	const seed = 3
	args := func(extra ...string) []string {
		return append([]string{"-run", "reliability", "-trials", "200", "-seed", "3", "-format", "json"}, extra...)
	}
	var plain bytes.Buffer
	if err := run(args(), &plain); err != nil {
		t.Fatal(err)
	}

	opts := experiments.Options{Instructions: 300_000, Trials: 200}
	scope := storeScope(opts, seed)
	rev := fmt.Sprintf("model=%d ", experiments.ModelRevision)
	if !strings.HasPrefix(scope[1], rev) {
		t.Fatalf("CanonicalString %q does not lead with %q", scope[1], rev)
	}
	rest := strings.TrimPrefix(scope[1], rev)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(scope []string, read bool) ([]sim.Result, sim.CacheStats) {
		t.Helper()
		reg := sim.NewRegistry()
		experiments.RegisterAll(reg, opts)
		c := &sim.StoreCache{Store: st, Scope: scope, Read: read}
		res, err := sim.Runner{Seed: seed, Cache: c}.RunAll(reg, []string{"reliability"})
		if err != nil {
			t.Fatal(err)
		}
		return res, c.Stats()
	}
	// The previous revision's scope, and the scope of builds from before
	// the model= field existed.
	for _, prev := range [][]string{
		{scope[0], fmt.Sprintf("model=%d %s", experiments.ModelRevision-1, rest), scope[2]},
		{scope[0], rest, scope[2]},
	} {
		results, _ := sweep(prev, false)
		c := &sim.StoreCache{Store: st, Scope: prev}
		for _, r := range results {
			r.Metrics = []sim.Metric{sim.Num("poisoned", 1)}
			c.Put(r.Experiment, r.Task, r)
		}
		if _, stats := sweep(prev, true); stats.Hits != uint64(len(results)) {
			t.Fatalf("poisoned entries not servable under their own scope: %d of %d hits", stats.Hits, len(results))
		}
	}

	stderr := captureStderr(t, func() {
		var resumed bytes.Buffer
		if err := run(args("-store", dir, "-resume"), &resumed); err != nil {
			t.Fatal(err)
		}
		if resumed.String() != plain.String() {
			t.Error("-resume served entries written under a previous model revision")
		}
	})
	if strings.Contains(stderr, "store served") {
		t.Errorf("-resume reported store hits: %q", stderr)
	}
	// The -resume run checkpointed under the current scope, which this
	// test rebuilt correctly only if every point now hits there.
	if results, stats := sweep(scope, true); stats.Hits != uint64(len(results)) {
		t.Errorf("current scope: %d of %d hits; the test's scope does not match the CLI's", stats.Hits, len(results))
	}
}

// captureStderr runs f with os.Stderr redirected and returns what it
// wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = orig }()
	f()
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestResumeRequiresStore(t *testing.T) {
	err := run([]string{"-resume", "-run", "area"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("-resume without -store accepted (err=%v)", err)
	}
}

// TestTaskErrorFlushesCompletedResults pins the failure path: a grid
// point that errors (here: a missing trace file) must still flush every
// result that completed before the failure stopped dispatch, and the
// run must report the error for the non-zero exit.
func TestTaskErrorFlushesCompletedResults(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.trace")
	var out bytes.Buffer
	err := run([]string{"-run", "corpus", "-instructions", "2000",
		"-trace", missing, "-format", "csv", "-workers", "2"}, &out)
	if err == nil {
		t.Fatal("missing trace file did not fail the sweep")
	}
	if !strings.Contains(err.Error(), "missing.trace") {
		t.Fatalf("error does not name the failing source: %v", err)
	}
	if !strings.Contains(out.String(), "corpus,scenario=A") {
		t.Fatalf("completed results were not flushed before the failure:\n%s", out.String())
	}
}

// TestForceExitHelperProcess is not a test: re-exec'd by
// TestSecondSignalForcesExit with EXPERIMENTS_FORCE_EXIT=1, it wires
// run()'s exact signal protocol — cli.SignalContext with
// cli.ForceExit("experiments") — around a drain that never finishes,
// so the parent can drive the two-signal sequence against a real
// process and observe the real exit status.
func TestForceExitHelperProcess(t *testing.T) {
	if os.Getenv("EXPERIMENTS_FORCE_EXIT") != "1" {
		t.Skip("helper for TestSecondSignalForcesExit")
	}
	ctx, stop := cli.SignalContext(context.Background(), cli.ForceExit("experiments"),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Println("READY")
	<-ctx.Done()
	fmt.Println("DRAINING")
	time.Sleep(time.Minute) // a drain stuck on an in-flight grid point
	os.Exit(3)              // never reached when the force path works
}

// TestSecondSignalForcesExit pins the operator escape hatch: the first
// SIGINT starts the graceful drain, the second prints "forcing exit"
// and leaves with status 130 even though the drain is wedged.
func TestSecondSignalForcesExit(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestForceExitHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_FORCE_EXIT=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer killer.Stop()

	sc := bufio.NewScanner(out)
	waitLine := func(want string) {
		t.Helper()
		for sc.Scan() {
			if sc.Text() == want {
				return
			}
		}
		t.Fatalf("helper exited before printing %q (stderr: %s)", want, stderr.String())
	}
	waitLine("READY")
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitLine("DRAINING")
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	} // drain stdout so Wait can reap the pipe
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("want exit status 130, got %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "experiments: forcing exit") {
		t.Fatalf("stderr missing the forcing-exit line:\n%s", stderr.String())
	}
}

// TestInterruptExitsNonZero pins the signal path's plumbing: a
// cancelled context surfaces as context.Canceled from the driver body,
// which cli.Main turns into a non-zero exit.
func TestInterruptExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runCtx(ctx, []string{"-run", "area", "-instructions", "2000"}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
