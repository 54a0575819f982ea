package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"edcache/internal/edcached"
	"edcache/internal/experiments"
	"edcache/internal/sim"
)

// heavyExperiments get a span metric each; the rest of the registry is
// summed into sim.exp.analytic_s.
var heavyExperiments = []string{
	"fig3", "fig4", "headline", "reliability", "a1-waysplit", "a2-memlat",
	"corpus", "corpus-miss", "phase-epi", "func-corr", "hier-epi", "shared-l2",
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"sim", "bench", "trace", "cpu", "cache", "core", "faults", "ecc", "store", "edcached"}

// perLayer lists the metrics a -trace 1 run reports in its JSON line,
// in BENCHMARK.json order. Every workload reports all of them.
var perLayer = func() []string {
	var names []string
	for _, e := range heavyExperiments {
		names = append(names, "sim.exp."+e+"_s")
	}
	names = append(names, "sim.exp.analytic_s", "sim.points_per_s", "sim.parallel_eff",
		"bench.gen_minst_per_s", "bench.gen_s",
		"trace.decode_mb_per_s", "trace.map_open_ms", "trace.map_replay_minst_per_s", "trace.bytes",
		"cpu.replay_minst_per_s",
		"cache.access_ns", "cache.hier_access_ns", "cache.stackprofile_ns", "cache.hits", "cache.misses",
		"core.run_minst_per_s", "core.self_s", "core.protected_read_ns",
		"faults.generate_ms", "faults.count", "faults.campaign_trials_per_s",
		"ecc.secded_decode_ns", "ecc.dected_decode_ns",
		"store.put_ms_p50", "store.put_ms_tail", "store.get_us_p50", "store.bytes_written", "store.hit_ratio",
		"edcached.submit_ms", "edcached.queue_ms", "edcached.run_ms", "edcached.result_ms",
		"edcached.leases_per_shard", "edcached.non2xx")
	for _, l := range selfLayers {
		names = append(names, "self."+l+"_s")
	}
	return append(names, "tracing.overhead_s", "tracing.overhead_vs_noise")
}()

// prober holds what every layer probe of the traced run shares.
type prober struct {
	cfg  config
	tr   *tracer
	o    *outcome
	g    gate
	root int // the run's root span
	reps int // how often every probe repeats its fixed piece of work
}

// repeat runs fn(i) for i < p.reps. The count is fixed, not timed, so a
// layer's summed span time is the cost of a fixed amount of work.
func (p *prober) repeat(fn func(i int)) {
	for i := 0; i < p.reps; i++ {
		fn(i)
	}
}

// tracedRun is the -trace 1 run. It times calls into each layer's
// public functions on the workload's inputs, with a span around every
// call, and reports the per-layer metrics, the per-layer self times and
// the tracing overhead: the workload's own pass traced minus the same
// pass untraced (the registry pass for sweep, its three experiments over
// its files for trace, one round for service-cold and service-warm).
// Outputs of the traced paths are gated like the
// end-to-end ones.
func tracedRun(ctx context.Context, cfg config) (*outcome, error) {
	p := &prober{
		cfg: cfg, o: &outcome{},
		tr:   newTracer(fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano())),
		reps: 5,
	}
	if cfg.tiny {
		p.reps = 1
	}
	dir := filepath.Join(cfg.work, "traced")
	defer os.RemoveAll(dir)
	p.root = p.tr.begin(0, "perfbench.run")

	set, err := writeTraceSet(filepath.Join(dir, "trace"), cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	ov, err := p.simLayer(ctx, set)
	if err != nil {
		return nil, err
	}
	arenas := p.benchLayer()
	if err := p.traceLayer(set); err != nil {
		return nil, err
	}
	if err := p.cpuCacheCoreLayers(arenas); err != nil {
		return nil, err
	}
	if err := p.faultsLayer(); err != nil {
		return nil, err
	}
	if err := p.eccLayer(); err != nil {
		return nil, err
	}
	if err := p.storeLayer(ctx, filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	svc, err := p.serviceLayer(ctx, filepath.Join(dir, "service"))
	if err != nil {
		return nil, err
	}
	if svc != (overhead{}) {
		ov = svc
	}
	p.tr.end(p.root)

	spans := p.tr.snapshot()
	self := selfTimes(spans)
	for _, l := range selfLayers {
		note := "span time minus covered child-span time, summed over the layer's spans"
		if l == "sim" {
			note = "registry-pass spans: every inner layer included (the engine opens no child spans)"
		}
		p.o.add("self."+l+"_s", self[l].Seconds(), "s", 1, note)
	}
	noise := "above"
	if ov.value().Abs() <= ov.spread() {
		noise = "within"
	}
	p.o.add("tracing.overhead_s", ov.value().Seconds(), "s", 1,
		fmt.Sprintf("traced %.4fs minus the mean of untraced %.4fs and %.4fs of the workload's own pass",
			ov.traced.Seconds(), ov.before.Seconds(), ov.after.Seconds()))
	p.o.add("tracing.overhead_vs_noise", ov.value().Seconds()/max(ov.spread(), time.Microsecond).Seconds(), "ratio", 3,
		fmt.Sprintf("overhead ÷ the gap between the two untraced passes (%.4fs): %s the noise", ov.spread().Seconds(), noise))
	// One dump per workload, overwritten by the next traced run, so
	// repeated runs do not fill the disk; each span carries its run id.
	dump := filepath.Join(cfg.work, fmt.Sprintf("spans-%s.jsonl", cfg.workload))
	if err := p.tr.write(dump); err != nil {
		return nil, err
	}
	p.o.note("span dump: %s (%d spans)", dump, len(spans))
	p.o.attempted, p.o.failed = p.g.attempted, p.g.failed
	return p.o, nil
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one in-process registry pass.
type pass struct {
	out    []byte
	wall   time.Duration
	cpu    time.Duration
	points int
	exp    map[string]time.Duration
}

// registryPass runs the named experiments (nil: all of them) in-process
// the way `experiments -run` does, with a span around
// sim.Runner.RunContext of each when tr is set, and renders the results
// as `-format json` does.
func (p *prober) registryPass(ctx context.Context, names []string, opts experiments.Options, tr *tracer, parent int) (pass, error) {
	reg := sim.NewRegistry()
	experiments.RegisterAll(reg, opts)
	if names == nil {
		names = reg.Names()
	}
	runner := sim.Runner{Workers: p.cfg.workers, Seed: p.cfg.seed}
	pr := pass{exp: map[string]time.Duration{}}
	var results []sim.Result
	cpu0, start := cpuTime(), time.Now()
	run := tr.begin(parent, "sim.run")
	for _, name := range names {
		e, ok := reg.Get(name)
		if !ok {
			return pr, fmt.Errorf("experiment %s is not registered", name)
		}
		id := tr.begin(run, "sim.exp."+name)
		t0 := time.Now()
		res, err := runner.RunContext(ctx, e)
		pr.exp[name] = time.Since(t0)
		tr.end(id)
		if err != nil {
			return pr, err
		}
		results = append(results, res...)
		pr.points += len(e.Grid())
	}
	tr.end(run)
	pr.wall, pr.cpu = time.Since(start), cpuTime()-cpu0
	var buf bytes.Buffer
	sink, err := sim.NewSink("json", &buf)
	if err == nil {
		err = sink.Write(results)
	}
	pr.out = buf.Bytes()
	return pr, err
}

// overhead is the tracing overhead of one workload pass: the traced
// pass's wall time minus the mean of an untraced pass just before and
// one just after it, and the gap between those two untraced passes, the
// noise the overhead is read against.
type overhead struct {
	traced, before, after time.Duration
}

func (v overhead) value() time.Duration  { return v.traced - (v.before+v.after)/2 }
func (v overhead) spread() time.Duration { return (v.before - v.after).Abs() }

// simLayer runs the whole registry in-process at the sweep's options,
// untraced and then with a span around sim.Runner.RunContext of every
// experiment; both passes must render identical JSON. The traced pass
// gives the sim.* metrics. On sweep, whose own pass is that registry
// pass, a second untraced pass after it brackets the traced one for the
// tracing overhead; on trace, the bracketed passes are the workload's
// own corpus,corpus-miss,phase-epi over its trace files.
func (p *prober) simLayer(ctx context.Context, set traceSet) (overhead, error) {
	opts := experiments.Options{Workers: p.cfg.workers}
	if p.cfg.tiny {
		opts.Instructions, opts.Trials = tinyInstructions, 200
	}
	var ov overhead
	before, err := p.registryPass(ctx, nil, opts, nil, 0)
	if err != nil {
		return ov, fmt.Errorf("untraced registry pass: %w", err)
	}
	layer := p.tr.begin(p.root, "probe.sim")
	traced, err := p.registryPass(ctx, nil, opts, p.tr, layer)
	p.tr.end(layer)
	if err != nil {
		return ov, fmt.Errorf("traced registry pass: %w", err)
	}
	p.g.check("traced registry pass JSON", traced.out, before.out)
	p.o.note("registry pass: %d grid points, untraced %.3fs, traced %.3fs, output sha256 %s",
		traced.points, before.wall.Seconds(), traced.wall.Seconds(), digest(traced.out))

	switch p.cfg.workload {
	case "sweep":
		after, err := p.registryPass(ctx, nil, opts, nil, 0)
		if err != nil {
			return ov, fmt.Errorf("untraced registry pass: %w", err)
		}
		p.g.check("second untraced registry pass JSON", after.out, before.out)
		ov = overhead{traced: traced.wall, before: before.wall, after: after.wall}
	case "trace":
		opts.TraceFiles, opts.MapThreshold = set.paths(), set.threshold
		var passes [3]pass
		for i := range passes {
			var tr *tracer
			if i == 1 {
				tr = p.tr
			}
			id := tr.begin(p.root, "probe.sim")
			passes[i], err = p.registryPass(ctx, traceExperiments, opts, tr, id)
			tr.end(id)
			if err != nil {
				return ov, fmt.Errorf("trace workload pass: %w", err)
			}
		}
		p.g.check("traced trace-workload pass JSON", passes[1].out, passes[0].out)
		p.g.check("second untraced trace-workload pass JSON", passes[2].out, passes[0].out)
		ov = overhead{traced: passes[1].wall, before: passes[0].wall, after: passes[2].wall}
	}

	heavy := map[string]bool{}
	for _, e := range heavyExperiments {
		d, ok := traced.exp[e]
		if !ok {
			return ov, fmt.Errorf("experiment %s is not registered", e)
		}
		heavy[e] = true
		p.o.add("sim.exp."+e+"_s", d.Seconds(), "s", 1, "span around sim.Runner.RunContext")
	}
	var analytic time.Duration
	for name, d := range traced.exp {
		if !heavy[name] {
			analytic += d
		}
	}
	p.o.add("sim.exp.analytic_s", analytic.Seconds(), "s", len(traced.exp)-len(heavyExperiments), "summed spans of the other experiments")
	p.o.add("sim.points_per_s", float64(traced.points)/traced.wall.Seconds(), "1/s", traced.points, "grid points per second of the traced pass")
	p.o.add("sim.parallel_eff", traced.cpu.Seconds()/(traced.wall.Seconds()*float64(p.cfg.workers)), "ratio", 1,
		fmt.Sprintf("process CPU ÷ (wall × %d workers)", p.cfg.workers))
	return ov, nil
}

// serviceLayer drives fresh edcached servers with the same client as
// the service workloads and reports client-side spans: one traced cold
// round (the mix over an empty data directory) and one traced warm round
// (the mix warmRepeats times over a warm store). On service-cold and
// service-warm, untraced rounds of the same kind bracket the traced one
// for the tracing overhead; elsewhere the returned overhead is zero.
func (p *prober) serviceLayer(ctx context.Context, dir string) (overhead, error) {
	var ov overhead
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ov, err
	}
	hc := newHTTPClient(p.cfg.workers)
	defer hc.CloseIdleConnections()
	sess := &session{cfg: p.cfg, hc: hc, clients: p.cfg.workers, dir: dir, specs: mixSpecs(p.cfg)}
	var jobs, traced []jobRecord
	r := 0
	phase := func(specs []edcached.JobSpec, bracket bool) error {
		var plain []time.Duration
		untraced := func() error {
			if !bracket {
				return nil
			}
			rs, err := sess.round(ctx, r, specs, nil, 0)
			r++
			jobs = append(jobs, rs.jobs...)
			plain = append(plain, rs.wall)
			return err
		}
		if err := untraced(); err != nil {
			return err
		}
		layer := p.tr.begin(p.root, "probe.edcached")
		rs, err := sess.round(ctx, r, specs, p.tr, layer)
		p.tr.end(layer)
		r++
		jobs = append(jobs, rs.jobs...)
		traced = append(traced, rs.jobs...)
		if err != nil {
			return err
		}
		if err := untraced(); err != nil {
			return err
		}
		if bracket {
			ov = overhead{traced: rs.wall, before: plain[0], after: plain[1]}
		}
		return nil
	}
	if err := phase(sess.specs, p.cfg.workload == "service-cold"); err != nil {
		return ov, err
	}
	warm, err := sess.warmUp(ctx)
	jobs = append(jobs, warm...)
	if err != nil {
		return ov, err
	}
	if err := phase(sess.warmSpecs(), p.cfg.workload == "service-warm"); err != nil {
		return ov, err
	}
	if err := references(ctx, p.cfg, jobs, &p.g); err != nil {
		return ov, err
	}

	var submit, queue, run, result []float64
	leases, shards, non2xx := 0, 0, 0
	for _, j := range traced {
		non2xx += j.non2xx
		if j.err != nil {
			continue
		}
		submit = append(submit, j.submit.Seconds()*1000)
		queue = append(queue, j.queue.Seconds()*1000)
		run = append(run, j.run.Seconds()*1000)
		result = append(result, j.result.Seconds()*1000)
		leases += j.leases
		shards += j.shards
	}
	if len(submit) == 0 {
		return ov, errors.New("no traced service job completed")
	}
	n := len(submit)
	p.o.add("edcached.submit_ms", median(submit), "ms", n, "median POST /jobs, cold and warm jobs")
	p.o.add("edcached.queue_ms", median(queue), "ms", n, "median submit answered → `running` event")
	p.o.add("edcached.run_ms", median(run), "ms", n, "median `running` → `done` event")
	p.o.add("edcached.result_ms", median(result), "ms", n, "median GET /result?format=json")
	lps := 0.0
	if shards > 0 {
		lps = float64(leases) / float64(shards)
	}
	p.o.add("edcached.leases_per_shard", lps, "ratio", shards, "lease grants ÷ distinct shards leased (1 = no re-lease)")
	p.o.add("edcached.non2xx", float64(non2xx), "count", n, "non-2xx HTTP answers")
	return ov, nil
}
