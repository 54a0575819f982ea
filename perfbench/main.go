// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one named workload against the built
// `experiments` and `edcached` binaries, checks their output bytes, and
// prints every metric by name with its unit and sample count; the last
// stdout line is one JSON object (correct, attempted, failed, metrics).
//
//	perfbench -workload sweep|trace|service-cold|service-warm -seed N -seconds S -trace 0|1
//	          [-bin DIR] [-work DIR]
//
// -trace 0 measures the end-to-end metrics with tracing off. -trace 1
// is the separate traced run: it times calls into every layer's public
// Go functions on the same inputs, records spans in memory, writes them
// to a dump file when it ends, and reports the per-layer metrics. The
// layer map, the workload rationale and the first baseline are in
// LAYERS.md next to this file. run.sh builds everything from source and
// is the entry point BENCHMARK.json names.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// runDeadline bounds a whole invocation, so a wedged child can never
// keep the benchmark from exiting.
const runDeadline = 170 * time.Second

// workloads are the named workloads, in BENCHMARK.json order.
var workloads = []string{"sweep", "trace", "service-cold", "service-warm"}

// endToEnd lists the metrics a -trace 0 run reports in its JSON line,
// in BENCHMARK.json order. Every workload reports all of them.
var endToEnd = []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "headline_dev_pp"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string // directory holding the built experiments and edcached
	work     string // scratch directory for generated inputs, stores and dumps
	tiny     bool   // shrink every input: the benchmark's own tests set it
	workers  int    // -workers handed to the programs: the host's CPU count
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: sweep, trace, service-cold or service-warm")
		seed     = fs.Int64("seed", 1, "workload seed; every generated input derives from it")
		seconds  = fs.Int("seconds", 20, "how long the measured loop runs")
		traced   = fs.Int("trace", 0, "1 = the traced per-layer run, 0 = end-to-end metrics")
		bin      = fs.String("bin", filepath.Join(".bench_build", "bin"), "directory with the built experiments and edcached binaries")
		work     = fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for inputs, stores and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !slices.Contains(workloads, *workload) {
		return config{}, fmt.Errorf("-workload must be one of %v, not %q", workloads, *workload)
	}
	if *traced != 0 && *traced != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("-seconds must be at least 1, not %d", *seconds)
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		bin:      *bin,
		work:     *work,
		workers:  runtime.NumCPU(),
	}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	ok, err := run(ctx, cfg, os.Stdout)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workload, prints its report and the JSON
// line, and reports whether every output passed the gate.
func run(ctx context.Context, cfg config, stdout io.Writer) (bool, error) {
	for _, p := range []string{"experiments", "edcached"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, p)); err != nil {
			return false, fmt.Errorf("program under test missing: %w", err)
		}
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return false, err
	}
	var (
		out  *outcome
		err  error
		want []string
	)
	if cfg.traced {
		out, err = tracedRun(ctx, cfg)
		want = perLayer
	} else {
		switch cfg.workload {
		case "sweep":
			out, err = sweepWorkload(ctx, cfg)
		case "trace":
			out, err = traceWorkload(ctx, cfg)
		case "service-cold", "service-warm":
			out, err = serviceWorkload(ctx, cfg)
		}
		want = endToEnd
	}
	if err != nil {
		return false, err
	}
	if err := out.print(stdout, cfg, want); err != nil {
		return false, err
	}
	return out.failed == 0, nil
}

// outcome is what one workload run measured.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	notes     []string // extra report lines (digests, dump paths)
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value
	Note  string // how the value was taken, e.g. "median" or "p93.3, 10 beyond"
}

func (o *outcome) add(name string, v float64, unit string, n int, note string) {
	o.metrics = append(o.metrics, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report — every metric with its unit
// and sample count, failed_share included — then the JSON line holding
// exactly the metrics named in want.
func (o *outcome) print(w io.Writer, cfg config, want []string) error {
	mode := "end-to-end"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%.0f mode=%s\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), mode)
	for _, n := range o.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	byName := make(map[string]metric, len(o.metrics))
	for _, m := range o.metrics {
		byName[m.Name] = m
		fmt.Fprintf(w, "  %-32s %16.6f %-8s n=%-5d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  %-32s %16.6f %-8s n=%-5d %d of %d operations failed, refused or mismatched\n",
		"failed_share", share, "ratio", o.attempted, o.failed, o.attempted)

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(want))
	var missing []string
	for _, name := range want {
		m, ok := byName[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		ms[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s measured no %q", cfg.workload, missing)
	}
	if o.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
