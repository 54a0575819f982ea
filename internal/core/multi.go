package core

import (
	"fmt"

	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/trace"
)

// Single-pass multi-configuration replay: a group of (System, Mode)
// evaluation points that share one instruction stream is run through
// one cpu.RunMulti pass instead of one full replay per point. The
// stream is walked and classified once; only the cache accesses and
// energy tallies fan out per member — and members whose cache geometry
// and way gating coincide (baseline vs proposed at the same mode, whose
// designs differ only in cell sizing, coding and latency, none of which
// touch cache *state*) share a single simulator in the underlying
// cache.MultiCache bank, so a 4-member design×mode group typically
// simulates only 2 distinct caches per side. Reports are bit-identical
// to RunStream member by member: the ports tally the same outcomes in
// the same order, and the accounting tail is the shared assemble.

// GroupMember is one evaluation point of a replay group.
type GroupMember struct {
	Sys  *System
	Mode Mode
}

// simKey identifies cache simulators that evolve identically under any
// access sequence: same geometry, same initially-enabled way set.
// Everything else a member configures — EDC latency, cell sizing,
// energy models — lives outside the simulator state.
type simKey struct {
	cfg     cache.Config
	enabled uint64
}

// enabledMask packs a simulator's initially-enabled ways into the
// dedup key.
func enabledMask(sim *cache.Cache, ways int) uint64 {
	var m uint64
	for w := 0; w < ways; w++ {
		if sim.WayEnabled(w) {
			m |= 1 << w
		}
	}
	return m
}

// multiPort adapts one side's cache bank to cpu.MultiPort: K logical
// ports (one tally state per member) over ≤K deduplicated simulators.
type multiPort struct {
	ports []*port // logical member ports; sim points at the shared slot
	slot  []int   // member k's simulator slot in the bank
	bank  *cache.MultiCache

	// Scratch: the op chunk is converted cpu→cache once per AccessBatch,
	// and each bank slot gets one Result row; rows re-slices res to the
	// chunk length for the bank call. The op buffer (and slot 0's row)
	// come from the shared run-scratch pool.
	scr  *runScratch
	res  [][]cache.Result
	rows [][]cache.Result
}

// release returns the pooled scratch; the port must not be used after.
func (mp *multiPort) release() {
	if mp.scr != nil {
		scratchPool.Put(mp.scr)
		mp.scr = nil
	}
}

// newMultiPort builds one side's bank port, deduplicating simulators
// across members by simKey.
func newMultiPort(members []GroupMember, dside bool) (*multiPort, error) {
	mp := &multiPort{
		ports: make([]*port, len(members)),
		slot:  make([]int, len(members)),
	}
	slots := make(map[simKey]int)
	var sims []*cache.Cache
	for k, gm := range members {
		cfg := cache.Config{Sets: gm.Sys.cfg.Sets, Ways: gm.Sys.cfg.Ways, LineBytes: gm.Sys.cfg.LineBytes}
		sim := gm.Sys.newSim(gm.Mode)
		key := simKey{cfg: cfg, enabled: enabledMask(sim, cfg.Ways)}
		idx, ok := slots[key]
		if !ok {
			idx = len(sims)
			slots[key] = idx
			sims = append(sims, sim)
		}
		extra := 0
		if dside {
			extra = gm.Sys.ExtraHitLatency(gm.Mode)
		}
		mp.ports[k] = &port{sim: sims[idx], extra: extra, hpWays: gm.Sys.cfg.Ways - gm.Sys.cfg.ULEWays}
		mp.slot[k] = idx
	}
	bank, err := cache.Bank(sims...)
	if err != nil {
		return nil, err
	}
	mp.bank = bank
	mp.scr = scratchPool.Get().(*runScratch)
	mp.res = make([][]cache.Result, bank.Len())
	mp.rows = make([][]cache.Result, bank.Len())
	return mp, nil
}

// Members implements cpu.MultiPort.
func (mp *multiPort) Members() int { return len(mp.ports) }

// ExtraHitLatency implements cpu.MultiPort.
func (mp *multiPort) ExtraHitLatency(k int) int { return mp.ports[k].extra }

// AccessBatch implements cpu.MultiPort: one op conversion, one banked
// simulator pass, then each logical member folds its slot's outcomes
// into its own energy counters — the identical tally a standalone port
// performs, over the identical Result sequence.
func (mp *multiPort) AccessBatch(ops []cpu.PortOp, miss [][]bool) {
	n := len(ops)
	mp.scr.grow(n)
	if mp.res[0] == nil || cap(mp.res[0]) < n {
		mp.res[0] = mp.scr.res[:cap(mp.scr.res)]
		for s := 1; s < len(mp.res); s++ {
			mp.res[s] = make([]cache.Result, cap(mp.scr.res))
		}
	}
	co := mp.scr.ops[:n]
	for i, op := range ops {
		co[i] = cache.Op{Addr: op.Addr, Write: op.Write}
	}
	for s := range mp.res {
		mp.rows[s] = mp.res[s][:n]
	}
	mp.bank.AccessBatch(co, mp.rows)
	for k, p := range mp.ports {
		cr := mp.rows[mp.slot[k]]
		mk := miss[k]
		for i := range cr {
			write := co[i].Write
			if write {
				p.writes++
			} else {
				p.reads++
			}
			mk[i] = p.tally(cr[i], write)
		}
	}
}

// BeginPhase implements cpu.MultiPhasePort, snapshotting every logical
// member's counters at the boundary.
func (mp *multiPort) BeginPhase(id uint8) {
	for _, p := range mp.ports {
		p.BeginPhase(id)
	}
}

// RunGroup replays one instruction stream through every member in a
// single pass and returns one Report per member, in member order, each
// bit-identical to RunStream of that member alone. All members must
// share the same memory latency (one timing model drives the pass);
// geometry, gating, design and mode may differ freely.
func RunGroup(name string, stream trace.Stream, members []GroupMember) ([]Report, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: empty replay group")
	}
	for k, gm := range members {
		if gm.Sys == nil {
			return nil, fmt.Errorf("core: nil system in replay group member %d", k)
		}
		if gm.Sys.cfg.L2 != nil {
			return nil, fmt.Errorf("core: replay group member %d (%s) has an L2 — hierarchies replay through RunStream or RunShared, not the banked engine", k, gm.Sys.cfg.Name())
		}
		if gm.Sys.cfg.MemLatency != members[0].Sys.cfg.MemLatency {
			return nil, fmt.Errorf("core: replay group mixes memory latencies %d and %d",
				members[0].Sys.cfg.MemLatency, gm.Sys.cfg.MemLatency)
		}
	}
	il1, err := newMultiPort(members, false)
	if err != nil {
		return nil, err
	}
	defer il1.release()
	dl1, err := newMultiPort(members, true)
	if err != nil {
		return nil, err
	}
	defer dl1.release()
	stats, err := cpu.RunMulti(cpu.Config{MemLatency: members[0].Sys.cfg.MemLatency}, il1, dl1, stream)
	if err != nil {
		return nil, err
	}
	reports := make([]Report, len(members))
	for k, gm := range members {
		rep, err := gm.Sys.assemble(name, gm.Mode, stats[k], il1.ports[k], dl1.ports[k])
		if err != nil {
			return nil, fmt.Errorf("core: %s group member %d (%s/%v): %w",
				name, k, gm.Sys.cfg.Name(), gm.Mode, err)
		}
		reports[k] = rep
	}
	return reports, nil
}

// RunGroupArena is RunGroup over a prepared slab (materialized or
// mmap-backed): the group shares one fresh cursor, so an N-member
// group costs one slab walk total.
func RunGroupArena(name string, a trace.Slab, members []GroupMember) ([]Report, error) {
	return RunGroup(name, a.NewCursor(), members)
}
