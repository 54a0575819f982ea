package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many times a workload times its set-up. Set-up
// is a few milliseconds of process start, whose upper half is host
// scheduling noise, so a run reports the lower quartile of many
// samples.
const setupSamples = 101

// setupSampler collects a workload's set-up samples. A workload takes a
// few before each timed pass or round and the rest after its loop, so
// the samples spread over the run instead of forming one burst that a
// short host stall can cover.
type setupSampler struct {
	xs   []float64
	take func(i int) (time.Duration, error)
}

// sample takes up to n more samples, stopping at setupSamples.
func (s *setupSampler) sample(n int) error {
	for ; n > 0 && len(s.xs) < setupSamples; n-- {
		d, err := s.take(len(s.xs))
		if err != nil {
			return err
		}
		s.xs = append(s.xs, d.Seconds())
	}
	return nil
}

// traceExperiments is what the trace workload runs over its files.
var traceExperiments = []string{"corpus", "corpus-miss", "phase-epi"}

// tinyArgs shrink the experiments' own cost for tiny runs (cfg.tiny).
var tinyArgs = []string{"-instructions", "20000", "-trials", "200"}

// sweepWorkload times `experiments -run all` at default options: the
// ROADMAP's headline number.
func sweepWorkload(ctx context.Context, cfg config) (*outcome, error) {
	args := []string{"-run", "all"}
	if cfg.tiny {
		args = append(args, tinyArgs...)
	}
	o := &outcome{}
	ref, err := cliWorkload(ctx, cfg, args, o)
	if err != nil {
		return nil, err
	}
	dev, err := headlineDeviation(ref)
	if err != nil {
		return nil, err
	}
	o.add("headline_dev_pp", dev, "pp", 1, "simulated: max |measured − paper| EPI saving over A/B × HP/ULE")
	return o, nil
}

// traceWorkload times the file-backed sweeps over trace files written
// from the seed. It runs without -store: a warm -resume never reads the
// trace files, so it would not measure the trace layer at all.
func traceWorkload(ctx context.Context, cfg config) (*outcome, error) {
	dir := filepath.Join(cfg.work, "trace")
	defer os.RemoveAll(dir)
	set, err := writeTraceSet(dir, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-run", strings.Join(traceExperiments, ",")}, set.cliArgs()...)
	if cfg.tiny {
		args = append(args, tinyArgs...)
	}
	o := &outcome{}
	for _, f := range set.files {
		o.note("input %s: %s, %d instructions, %d bytes, phases=%v", filepath.Base(f.path), f.base, f.insts, f.size, f.phased)
	}
	if _, err := cliWorkload(ctx, cfg, args, o); err != nil {
		return nil, err
	}
	// The trace sweeps do not include the headline grid; the simulated
	// deviation comes from one headline run at the same seed, outside
	// the timed loop.
	hargs := []string{"-run", "headline", "-seed", strconv.FormatInt(cfg.seed, 10), "-format", "json"}
	if cfg.tiny {
		hargs = append(hargs, tinyArgs...)
	}
	h, err := runProc(ctx, filepath.Join(cfg.bin, "experiments"), hargs...)
	if err != nil {
		return nil, err
	}
	dev, err := headlineDeviation(h.out)
	if err != nil {
		return nil, err
	}
	o.add("headline_dev_pp", dev, "pp", 1, "simulated: from one headline run at this seed")
	return o, nil
}

// cliWorkload is the measurement shared by sweep and trace: set-up
// (the registry build: `-list` with the same options), one reference
// pass at -workers 1, then timed passes at -workers = CPU count for
// cfg.seconds. Every timed pass's stdout must equal the reference — the
// repository's worker-count determinism invariant. It returns the
// reference bytes.
func cliWorkload(ctx context.Context, cfg config, args []string, o *outcome) ([]byte, error) {
	exp := filepath.Join(cfg.bin, "experiments")
	common := append(append([]string(nil), args...), "-seed", strconv.FormatInt(cfg.seed, 10), "-format", "json")

	setup := &setupSampler{take: func(int) (time.Duration, error) {
		r, err := runProc(ctx, exp, append(append([]string(nil), common...), "-list")...)
		return r.wall, err
	}}

	ref, err := runProc(ctx, exp, append(append([]string(nil), common...), "-workers", "1")...)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	o.note("reference (-workers 1): %d bytes, sha256 %s", len(ref.out), digest(ref.out))

	var g gate
	var walls, cpus, rss []float64
	timed := append(append([]string(nil), common...), "-workers", strconv.Itoa(cfg.workers))
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		if err := setup.sample(10); err != nil {
			return nil, err
		}
		r, err := runProc(ctx, exp, timed...)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			g.fail(fmt.Sprintf("pass %d", pass), err)
			continue
		}
		g.check(fmt.Sprintf("pass %d stdout", pass), r.out, ref.out)
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.maxRSS)
	}
	if err := setup.sample(setupSamples); err != nil {
		return nil, err
	}
	o.attempted, o.failed = g.attempted, g.failed
	if len(walls) == 0 {
		return nil, errors.New("no timed pass succeeded")
	}
	o.add("setup_s", quantile(setup.xs, 0.25), "s", len(setup.xs), "lower quartile of the registry build: process start to -list exit")
	o.add("wall_s", median(walls), "s", len(walls), fmt.Sprintf("median pass; quartiles %.4f..%.4f", quantile(walls, 0.25), quantile(walls, 0.75)))
	o.add("cpu_s", median(cpus), "s", len(cpus), "median user+sys CPU of a pass (child rusage)")
	o.add("peak_rss_mb", mean(rss), "MB", len(rss), fmt.Sprintf("mean of per-pass peak RSS; range %.1f..%.1f", quantile(rss, 0), quantile(rss, 1)))
	return ref.out, nil
}
