package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/core"
	"edcache/internal/cpu"
	"edcache/internal/ecc"
	"edcache/internal/experiments"
	"edcache/internal/faults"
	"edcache/internal/sim"
	"edcache/internal/store"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// sweepInstructions is the sweep's per-workload instruction count
// (experiments' default); tiny runs use tinyInstructions.
const (
	sweepInstructions = 300_000
	tinyInstructions  = 20_000
	batch             = 1024 // ops per AccessBatch call, as cpu's replay loop issues them
)

func (p *prober) instructions() int {
	if p.cfg.tiny {
		return tinyInstructions
	}
	return sweepInstructions
}

// arena is one generated workload slab.
type arena struct {
	name string
	a    *trace.Arena
}

// benchLayer times trace.NewArena(w.Stream()) over the whole registered
// corpus at the sweep's instruction count and returns the paper suite's
// slabs for the replay probes.
func (p *prober) benchLayer() []arena {
	ws := bench.Full()
	layer := p.tr.begin(p.root, "probe.bench")
	defer p.tr.end(layer)
	var times []float64
	var paper []arena
	insts := 0
	p.repeat(func(int) {
		paper, insts = paper[:0], 0
		id := p.tr.begin(layer, "bench.gen")
		start := time.Now()
		for _, w := range ws {
			a := trace.NewArena(w.ScaledTo(p.instructions()).Stream())
			insts += a.Len()
			if w.Pattern == bench.PatternMediaBench {
				paper = append(paper, arena{w.Name, a})
			}
		}
		times = append(times, time.Since(start).Seconds())
		p.tr.end(id)
	})
	gen := median(times)
	p.o.add("bench.gen_s", gen, "s", len(times), fmt.Sprintf("median: %d workloads, %d instructions", len(ws), insts))
	p.o.add("bench.gen_minst_per_s", float64(insts)/gen/1e6, "Minst/s", len(times), "generated instructions per second")
	return paper
}

// traceLayer times the trace layer on the trace workload's files:
// LoadArenaFile on the slab-sized ones, OpenSlab above the map
// threshold, then a full replay from the mapped arena.
func (p *prober) traceLayer(set traceSet) error {
	layer := p.tr.begin(p.root, "probe.trace")
	defer p.tr.end(layer)
	slabs, mapped := set.files[:len(set.files)-1], set.files[len(set.files)-1]
	var slabBytes int64
	for _, f := range slabs {
		slabBytes += f.size
	}
	var decode, open, replay []float64
	var err error
	p.repeat(func(int) {
		if err != nil {
			return
		}
		id := p.tr.begin(layer, "trace.decode")
		start := time.Now()
		for _, f := range slabs {
			if _, err = trace.LoadArenaFile(f.path); err != nil {
				return
			}
		}
		decode = append(decode, time.Since(start).Seconds())
		p.tr.end(id)

		id = p.tr.begin(layer, "trace.map_open")
		start = time.Now()
		s, oerr := trace.OpenSlab(mapped.path, set.threshold)
		open = append(open, time.Since(start).Seconds())
		p.tr.end(id)
		if oerr != nil {
			err = oerr
			return
		}
		if _, ok := s.(*trace.MapArena); !ok {
			err = fmt.Errorf("%s (%d bytes) opened as %T, not mapped", mapped.path, mapped.size, s)
			return
		}
		id = p.tr.begin(layer, "trace.map_replay")
		start = time.Now()
		cur, n := s.NewCursor(), 0
		for sl := cur.NextSlice(batch); len(sl) > 0; sl = cur.NextSlice(batch) {
			n += len(sl)
		}
		replay = append(replay, time.Since(start).Seconds())
		p.tr.end(id)
		if n != mapped.insts {
			err = fmt.Errorf("mapped replay read %d of %d instructions", n, mapped.insts)
		}
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	})
	if err != nil {
		return err
	}
	p.o.add("trace.decode_mb_per_s", float64(slabBytes)/median(decode)/1e6, "MB/s", len(decode),
		fmt.Sprintf("LoadArenaFile over %d slab-sized files", len(slabs)))
	p.o.add("trace.map_open_ms", median(open)*1000, "ms", len(open), "OpenSlab above the map threshold")
	p.o.add("trace.map_replay_minst_per_s", float64(mapped.insts)/median(replay)/1e6, "Minst/s", len(replay), "cursor replay of the mapped arena")
	p.o.add("trace.bytes", float64(set.bytes()), "bytes", len(set.files), "bytes one decode + map pass reads")
	return nil
}

// hitPort is a cpu port on which every access hits: replay through it
// costs only the cpu layer's classification and loop.
type hitPort struct{}

func (hitPort) Access(uint32, bool) bool                { return false }
func (hitPort) ExtraHitLatency() int                    { return 0 }
func (hitPort) AccessBatch(_ []cpu.PortOp, miss []bool) { clear(miss) }

// cachePort is a cpu port over one cache.Cache with a span around each
// AccessBatch: cpu replay through it is the cpu and cache layers of a
// core run without core's energy accounting.
type cachePort struct {
	c      *cache.Cache
	extra  int
	ops    []cache.Op
	res    []cache.Result
	tr     *tracer
	parent int
}

func (p *cachePort) Access(addr uint32, write bool) bool { return !p.c.Access(addr, write).Hit }
func (p *cachePort) ExtraHitLatency() int                { return p.extra }
func (p *cachePort) AccessBatch(ops []cpu.PortOp, miss []bool) {
	p.ops, p.res = p.ops[:0], p.res[:len(ops)]
	for _, o := range ops {
		p.ops = append(p.ops, cache.Op{Addr: o.Addr, Write: o.Write})
	}
	id := p.tr.begin(p.parent, "cache.batch")
	p.c.AccessBatch(p.ops, p.res)
	p.tr.end(id)
	for i, r := range p.res {
		miss[i] = !r.Hit
	}
}

// l1 builds the simulator core.System uses for one L1 in mode m.
func l1(c core.Config, m core.Mode) *cache.Cache {
	sim := cache.MustNew(cache.Config{Sets: c.Sets, Ways: c.Ways, LineBytes: c.LineBytes})
	switch {
	case m == core.ModeULE:
		for w := 0; w < c.Ways-c.ULEWays; w++ {
			sim.SetWayEnabled(w, false)
		}
	case c.GateULEWaysAtHP:
		for w := c.Ways - c.ULEWays; w < c.Ways; w++ {
			sim.SetWayEnabled(w, false)
		}
	}
	return sim
}

// dataOps extracts an arena's DL1 accesses.
func dataOps(a *trace.Arena) []cache.Op {
	var ops []cache.Op
	cur := a.Cursor()
	for sl := cur.NextSlice(batch); len(sl) > 0; sl = cur.NextSlice(batch) {
		for _, in := range sl {
			if in.IsLoad || in.IsStore {
				ops = append(ops, cache.Op{Addr: in.Addr, Write: in.IsStore})
			}
		}
	}
	return ops
}

// cpuCacheCoreLayers times the replay stack over the paper suite's
// slabs: cpu.Run on always-hit ports (cpu), Cache/Hierarchy/StackProfile
// AccessBatch on the DL1 stream (cache), System.RunArena per design and
// mode (core), and cpu.Run over plain cache ports on the same inputs,
// whose difference from core's run is core's own share (core.self_s).
func (p *prober) cpuCacheCoreLayers(arenas []arena) error {
	cpuCfg := cpu.Config{MemLatency: 20}
	insts := 0
	for _, a := range arenas {
		insts += a.a.Len()
	}

	layer := p.tr.begin(p.root, "probe.cpu")
	var replay []float64
	var err error
	p.repeat(func(int) {
		id := p.tr.begin(layer, "cpu.replay")
		start := time.Now()
		for _, a := range arenas {
			if _, rerr := cpu.Run(cpuCfg, hitPort{}, hitPort{}, a.a.Cursor()); rerr != nil {
				err = rerr
			}
		}
		replay = append(replay, time.Since(start).Seconds())
		p.tr.end(id)
	})
	p.tr.end(layer)
	if err != nil {
		return err
	}
	p.o.add("cpu.replay_minst_per_s", float64(insts)/median(replay)/1e6, "Minst/s", len(replay), "cpu.Run over always-hit ports, paper suite")

	// cache: the DL1 data stream of every paper workload at the paper
	// DL1 geometry, fresh simulators per workload as a run starts empty.
	dl1 := cache.Config{Sets: 32, Ways: 8, LineBytes: 32}
	l2 := cache.Config{Sets: 128, Ways: 8, LineBytes: 32}
	var streams [][]cache.Op
	nops := 0
	for _, a := range arenas {
		ops := dataOps(a.a)
		streams = append(streams, ops)
		nops += len(ops)
	}
	res := make([]cache.Result, batch)
	layer = p.tr.begin(p.root, "probe.cache")
	var access, hier, prof []float64
	var hits, misses uint64
	p.repeat(func(i int) {
		id := p.tr.begin(layer, "cache.access")
		start := time.Now()
		for _, ops := range streams {
			c := cache.MustNew(dl1)
			for lo := 0; lo < len(ops); lo += batch {
				chunk := ops[lo:min(lo+batch, len(ops))]
				c.AccessBatch(chunk, res[:len(chunk)])
				if i == 0 {
					for _, r := range res[:len(chunk)] {
						if r.Hit {
							hits++
						} else {
							misses++
						}
					}
				}
			}
		}
		access = append(access, time.Since(start).Seconds())
		p.tr.end(id)

		id = p.tr.begin(layer, "cache.hier_access")
		start = time.Now()
		for _, ops := range streams {
			h := cache.MustNewHierarchy(cache.MustNew(dl1), cache.MustNew(l2))
			for lo := 0; lo < len(ops); lo += batch {
				chunk := ops[lo:min(lo+batch, len(ops))]
				h.AccessBatch(chunk, res[:len(chunk)])
			}
		}
		hier = append(hier, time.Since(start).Seconds())
		p.tr.end(id)

		id = p.tr.begin(layer, "cache.stackprofile")
		start = time.Now()
		for _, ops := range streams {
			sp := cache.MustNewStackProfile(dl1)
			for lo := 0; lo < len(ops); lo += batch {
				sp.AccessBatch(ops[lo:min(lo+batch, len(ops))])
			}
		}
		prof = append(prof, time.Since(start).Seconds())
		p.tr.end(id)
	})
	p.tr.end(layer)
	perOp := 1e9 / float64(nops)
	p.o.add("cache.access_ns", median(access)*perOp, "ns", len(access), fmt.Sprintf("Cache.AccessBatch per access, %d DL1 accesses", nops))
	p.o.add("cache.hier_access_ns", median(hier)*perOp, "ns", len(hier), "Hierarchy.AccessBatch per access, 32x8 L1 + 128x8 L2")
	p.o.add("cache.stackprofile_ns", median(prof)*perOp, "ns", len(prof), "StackProfile.AccessBatch per access")
	p.o.add("cache.hits", float64(hits), "count", 1, "simulated DL1 hits (exact at any seed)")
	p.o.add("cache.misses", float64(misses), "count", 1, "simulated DL1 misses (exact at any seed)")

	// core: every design × mode of scenario A over the paper suite, and
	// the same replays through plain cache ports.
	type member struct {
		sys *core.System
		m   core.Mode
	}
	var members []member
	for _, d := range []core.Design{core.Baseline, core.Proposed} {
		sys, serr := core.NewSystem(core.PaperConfig(yield.ScenarioA, d))
		if serr != nil {
			return serr
		}
		for _, m := range []core.Mode{core.ModeHP, core.ModeULE} {
			members = append(members, member{sys, m})
		}
	}
	layer = p.tr.begin(p.root, "probe.core")
	var runs, self []float64
	p.repeat(func(int) {
		var run, inner time.Duration
		for _, mb := range members {
			id := p.tr.begin(layer, "core.run")
			start := time.Now()
			for _, a := range arenas {
				if _, rerr := mb.sys.RunArena(a.name, a.a, mb.m); rerr != nil {
					err = rerr
				}
			}
			run += time.Since(start)
			p.tr.end(id)

			id = p.tr.begin(layer, "cpu.run")
			start = time.Now()
			for _, a := range arenas {
				c := mb.sys.Config()
				il1 := &cachePort{c: l1(c, mb.m), res: make([]cache.Result, batch), tr: p.tr, parent: id}
				dl1 := &cachePort{c: l1(c, mb.m), extra: mb.sys.ExtraHitLatency(mb.m), res: make([]cache.Result, batch), tr: p.tr, parent: id}
				if _, rerr := cpu.Run(cpu.Config{MemLatency: c.MemLatency}, il1, dl1, a.a.Cursor()); rerr != nil {
					err = rerr
				}
			}
			inner += time.Since(start)
			p.tr.end(id)
		}
		runs = append(runs, run.Seconds())
		self = append(self, (run - inner).Seconds())
	})
	if err != nil {
		return err
	}
	p.o.add("core.run_minst_per_s", float64(insts*len(members))/median(runs)/1e6, "Minst/s", len(runs),
		fmt.Sprintf("System.RunArena over %d designs×modes, paper suite", len(members)))
	p.o.add("core.self_s", median(self), "s", len(self), "core.run minus cpu.run over plain cache ports, same inputs")

	// Protected reads on faulty ways at the func-corr Pf points.
	var reads []float64
	nreads := 0
	var ways []*core.ProtectedWay
	for si, s := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		res, yerr := yield.Run(yield.PaperInput(s))
		if yerr != nil {
			return yerr
		}
		kind := s.ProposedCode()
		geom := funcCorrGeometry(kind)
		for pi, scale := range funcCorrPfScales {
			rng := rand.New(rand.NewSource(deriveSeed(p.cfg.seed, "protected", si*10+pi)))
			fm, ferr := faults.Generate(geom, res.ProposedPf*scale, rng)
			if ferr != nil {
				return ferr
			}
			pw, perr := core.NewProtectedWay(geom.Lines, geom.WordsPerLine, kind, 32, 26, fm)
			if perr != nil {
				return perr
			}
			for line := 0; line < geom.Lines; line++ {
				for w := 0; w < geom.WordsPerLine; w++ {
					pw.WriteData(line, w, uint64(rng.Uint32()))
				}
			}
			ways = append(ways, pw)
		}
	}
	const readPasses = 64
	p.repeat(func(int) {
		id := p.tr.begin(layer, "core.protected_read")
		start := time.Now()
		for _, pw := range ways {
			g := pw.Geometry()
			for pass := 0; pass < readPasses; pass++ {
				for line := 0; line < g.Lines; line++ {
					for w := 0; w < g.WordsPerLine; w++ {
						pw.ReadData(line, w)
					}
				}
			}
		}
		reads = append(reads, time.Since(start).Seconds())
		p.tr.end(id)
	})
	p.tr.end(layer)
	for _, pw := range ways {
		nreads += readPasses * pw.Geometry().Lines * pw.Geometry().WordsPerLine
	}
	p.o.add("core.protected_read_ns", median(reads)*1e9/float64(nreads), "ns", len(reads),
		fmt.Sprintf("ProtectedWay.ReadData on %d faulty ways (func-corr Pf points)", len(ways)))
	return nil
}

// funcCorrPfScales are the func-corr experiment's multiples of the
// sized ULE-mode Pf.
var funcCorrPfScales = []float64{0.3, 1, 3, 10}

// funcCorrGeometry is the func-corr/reliability way geometry for a code.
func funcCorrGeometry(kind ecc.Kind) faults.WayGeometry {
	check := kind.CheckBits()
	return faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32 + check, TagWordBits: 26 + check}
}

// faultsLayer times faults.Generate per die at the func-corr and
// reliability geometries and Pf values, counts the faults of a fixed
// set of seed-derived dice, and times a reliability Campaign.Run.
func (p *prober) faultsLayer() error {
	type point struct {
		geom faults.WayGeometry
		pf   float64
	}
	var points []point
	var campaign faults.Campaign
	for _, s := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		res, err := yield.Run(yield.PaperInput(s))
		if err != nil {
			return err
		}
		for _, scale := range funcCorrPfScales {
			points = append(points, point{funcCorrGeometry(s.ProposedCode()), res.ProposedPf * scale})
		}
		points = append(points,
			point{funcCorrGeometry(s.BaselineCode()), res.BaselinePf},
			point{funcCorrGeometry(s.ProposedCode()), res.ProposedPf})
		if s == yield.ScenarioA {
			campaign = faults.Campaign{Geometry: funcCorrGeometry(s.ProposedCode()), Pf: res.ProposedPf, Trials: 2000, Tolerable: 1}
		}
	}
	const dice = 10
	layer := p.tr.begin(p.root, "probe.faults")
	defer p.tr.end(layer)
	var perDie []float64
	count := 0
	var err error
	p.repeat(func(i int) {
		for pi, pt := range points {
			rng := rand.New(rand.NewSource(deriveSeed(p.cfg.seed, "faults", pi)))
			for d := 0; d < dice; d++ {
				id := p.tr.begin(layer, "faults.generate")
				start := time.Now()
				fm, gerr := faults.Generate(pt.geom, pt.pf, rng)
				perDie = append(perDie, time.Since(start).Seconds()*1000)
				p.tr.end(id)
				if gerr != nil {
					err = gerr
					return
				}
				if i == 0 {
					count += fm.Count()
				}
			}
		}
	})
	if err != nil {
		return err
	}
	p.o.add("faults.generate_ms", median(perDie), "ms", len(perDie), fmt.Sprintf("median faults.Generate per die over %d geometry×Pf points", len(points)))
	p.o.add("faults.count", float64(count), "count", len(points)*dice, "faults on the seed's fixed dice (exact per seed)")

	if p.cfg.tiny {
		campaign.Trials = 200
	}
	var rates []float64
	p.repeat(func(int) {
		if err != nil {
			return
		}
		id := p.tr.begin(layer, "faults.campaign")
		start := time.Now()
		_, err = campaign.Run(p.cfg.seed, p.cfg.workers)
		rates = append(rates, float64(campaign.Trials)/time.Since(start).Seconds())
		p.tr.end(id)
	})
	if err != nil {
		return err
	}
	p.o.add("faults.campaign_trials_per_s", median(rates), "1/s", len(rates),
		fmt.Sprintf("Campaign.Run, %d trials, scenario A proposed, %d workers", campaign.Trials, p.cfg.workers))
	return nil
}

// eccLayer times SECDED and DECTED decoding of seed-derived codewords
// carrying 0, 1 or 2 flipped bits in turn.
func (p *prober) eccLayer() error {
	layer := p.tr.begin(p.root, "probe.ecc")
	defer p.tr.end(layer)
	for _, k := range []struct {
		kind ecc.Kind
		name string
	}{{ecc.KindSECDED, "ecc.secded_decode"}, {ecc.KindDECTED, "ecc.dected_decode"}} {
		codec, err := ecc.New(k.kind, 32)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(deriveSeed(p.cfg.seed, k.name, 0)))
		words := make([]uint64, 4096)
		bits := ecc.TotalBits(codec)
		for i := range words {
			cw := codec.Encode(uint64(rng.Uint32()) & ecc.DataMask(codec))
			for f := 0; f < i%3; f++ {
				cw = faults.FlipRandomBit(cw, bits, rng)
			}
			words[i] = cw
		}
		var per []float64
		const passes = 64
		p.repeat(func(int) {
			id := p.tr.begin(layer, k.name)
			start := time.Now()
			for pass := 0; pass < passes; pass++ {
				for _, w := range words {
					codec.Decode(w)
				}
			}
			per = append(per, time.Since(start).Seconds()*1e9/float64(passes*len(words)))
			p.tr.end(id)
		})
		p.o.add(k.name+"_ns", median(per), "ns", len(per), codec.Name()+" Decode per word, 0/1/2 flipped bits in turn")
	}
	return nil
}

// storeLayer replays the service workload's store traffic in a scratch
// store: the result payloads of one cold round of the mix (same count
// and sizes, computed in-process at a seed-derived seed) are Put with
// fsync, then read back with Get; every Get must return the Put bytes.
func (p *prober) storeLayer(ctx context.Context, dir string) error {
	opts := experiments.Options{Workers: p.cfg.workers}
	if p.cfg.tiny {
		opts.Instructions, opts.Trials = tinyInstructions, 200
	}
	reg := sim.NewRegistry()
	experiments.RegisterAll(reg, opts)
	seed := deriveSeed(p.cfg.seed, "store", 0)
	runner := sim.Runner{Workers: p.cfg.workers, Seed: seed}
	type entry struct {
		d       store.Digest
		payload []byte
	}
	var entries []entry
	for _, name := range serviceMix {
		e, _ := reg.Get(name)
		ids := make([]int, len(e.Grid()))
		for i := range ids {
			ids[i] = i
		}
		res, err := runner.RunTasks(ctx, e, ids)
		if err != nil {
			return err
		}
		for _, r := range res {
			b, ok := sim.EncodeResult(r)
			if !ok {
				continue // the service skips these too
			}
			entries = append(entries, entry{
				d:       store.NewDigest("perfbench", name, strconv.Itoa(r.Task.ID), strconv.FormatInt(seed, 10)),
				payload: b,
			})
		}
	}

	layer := p.tr.begin(p.root, "probe.store")
	defer p.tr.end(layer)
	var puts, gets []float64
	var written int64
	hits := 0
	var err error
	p.repeat(func(rep int) {
		if err != nil {
			return
		}
		st, oerr := store.Open(filepath.Join(dir, strconv.Itoa(rep)))
		if oerr != nil {
			err = oerr
			return
		}
		for _, e := range entries {
			id := p.tr.begin(layer, "store.put")
			start := time.Now()
			perr := st.Put(e.d, e.payload)
			puts = append(puts, time.Since(start).Seconds()*1000)
			p.tr.end(id)
			if perr != nil {
				err = perr
				return
			}
		}
		for _, e := range entries {
			id := p.tr.begin(layer, "store.get")
			start := time.Now()
			b, ok := st.Get(e.d)
			gets = append(gets, time.Since(start).Seconds()*1e6)
			p.tr.end(id)
			if ok && p.g.check("store.Get payload", b, e.payload) {
				hits++
			} else if !ok {
				p.g.fail("store.Get", fmt.Errorf("miss on a stored digest"))
			}
		}
		if rep == 0 {
			err = filepath.WalkDir(st.Dir(), func(_ string, d fs.DirEntry, werr error) error {
				if werr != nil || d.IsDir() {
					return werr
				}
				info, ierr := d.Info()
				if ierr == nil {
					written += info.Size()
				}
				return ierr
			})
		}
	})
	if err != nil {
		return err
	}
	tv, pct, ok := tail(puts)
	note := fmt.Sprintf("p%.1f, %d samples beyond", pct, tailBeyond)
	if !ok {
		note = "max: too few samples for a tail"
	}
	p.o.add("store.put_ms_p50", median(puts), "ms", len(puts), fmt.Sprintf("median store.Put (fsync included), %d payloads per round", len(entries)))
	p.o.add("store.put_ms_tail", tv, "ms", len(puts), note)
	p.o.add("store.get_us_p50", median(gets), "us", len(gets), "median store.Get")
	p.o.add("store.bytes_written", float64(written), "bytes", len(entries), "entry bytes on disk after one round")
	p.o.add("store.hit_ratio", float64(hits)/float64(len(gets)), "ratio", len(gets), "Gets returning the Put bytes ÷ Gets")
	return nil
}
