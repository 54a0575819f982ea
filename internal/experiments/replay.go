package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/yield"
)

// The replay memo is the registry-wide cache of simulation Reports.
// Every experiment registered from one RegisterAll reaches it through
// the shared Options, and a Report is keyed by everything that shapes
// it: the design point (a core.Config, its L2 held by value), the
// operating mode and the replay source. The figures, the headline, the
// corpus sweep, phase-epi, the replaying ablations and the hierarchy
// experiments largely evaluate the same points, so within one run each
// distinct replay executes once and every later request reads it.
//
// A caller asks for all the members it needs at once. The members the
// memo lacks are filled in one go: single-level members replay as one
// core.RunGroupArena pass (one slab walk and classification, cache
// simulators shared between designs at equal mode), hierarchy members
// through RunArena. Only requested members are computed, so an
// experiment run alone pays no more than its own grid needs. Reports
// are bit-identical however they were grouped.

// designKey is a core.Config made comparable by value: the L2 pointer
// is replaced by the geometry it points at (the zero L2Config meaning
// no second level).
type designKey struct {
	cfg core.Config // L2 always nil
	l2  core.L2Config
}

func designOf(c core.Config) designKey {
	k := designKey{cfg: c}
	if c.L2 != nil {
		k.l2 = *c.L2
		k.cfg.L2 = nil
	}
	return k
}

func (k designKey) config() core.Config {
	if k.l2 == (core.L2Config{}) {
		return k.cfg
	}
	return k.cfg.WithL2(k.l2)
}

// replaySource names one replay input: a workload at the run's
// configured length, or a trace file.
type replaySource struct {
	name string // workload name, or the trace file's report label
	path string // trace file path; "" for a generated workload
}

// workloadSource is the source of a generated workload.
func workloadSource(name string) replaySource { return replaySource{name: name} }

// taskSource is a grid task's source: the file its "trace" parameter
// names, labelled by its "workload" parameter, or that workload.
func taskSource(t sim.Task) replaySource {
	return replaySource{name: t.Params["workload"], path: t.Params["trace"]}
}

// member is one requested evaluation point.
type member struct {
	cfg  core.Config
	mode core.Mode
}

type replayKey struct {
	design designKey
	mode   core.Mode
	src    replaySource
}

// replayEntry is one key's slot; done closes once rep/err are final.
type replayEntry struct {
	done chan struct{}
	rep  core.Report
	err  error
}

var errReplayAborted = errors.New("experiments: replay aborted")

type replayMemo struct {
	o       Options // resolves sources to slabs (sourceSlab)
	systems *sim.Shared[designKey, *core.System]

	mu      sync.Mutex
	entries map[replayKey]*replayEntry

	// replayed counts the members actually simulated — the test hook
	// for "each distinct key runs exactly once".
	replayed atomic.Int64
}

func newReplayMemo(o Options) *replayMemo {
	return &replayMemo{
		o: o,
		systems: sim.NewShared(func(k designKey) (*core.System, error) {
			return core.NewSystem(k.config())
		}),
		entries: make(map[replayKey]*replayEntry),
	}
}

// system returns the memo's shared System for a design point.
func (r *replayMemo) system(cfg core.Config) (*core.System, error) {
	return r.systems.Get(designOf(cfg))
}

// reports returns one Report per member over src, in member order. The
// members no earlier request claimed are replayed here; the rest are
// waited for, so concurrent grid tasks never replay a key twice.
func (r *replayMemo) reports(src replaySource, members ...member) ([]core.Report, error) {
	entries := make([]*replayEntry, len(members))
	var owned []int
	r.mu.Lock()
	for i, m := range members {
		k := replayKey{design: designOf(m.cfg), mode: m.mode, src: src}
		e := r.entries[k]
		if e == nil {
			e = &replayEntry{done: make(chan struct{}), err: errReplayAborted}
			r.entries[k] = e
			owned = append(owned, i)
		}
		entries[i] = e
	}
	r.mu.Unlock()
	if len(owned) > 0 {
		r.fill(src, members, entries, owned)
	}
	out := make([]core.Report, len(members))
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		out[i] = e.rep
	}
	return out, nil
}

// fill replays the owned members and publishes their entries. The
// entries are closed even if a replay panics, so waiters see
// errReplayAborted instead of blocking.
func (r *replayMemo) fill(src replaySource, members []member, entries []*replayEntry, owned []int) {
	defer func() {
		for _, i := range owned {
			close(entries[i].done)
		}
	}()
	fail := func(err error) {
		for _, i := range owned {
			if entries[i].err == errReplayAborted {
				entries[i].err = err
			}
		}
	}
	slab, err := r.o.sourceSlab(src)
	if err != nil {
		fail(err)
		return
	}
	var group []core.GroupMember
	var groupAt []int
	for _, i := range owned {
		m := members[i]
		sys, err := r.system(m.cfg)
		if err != nil {
			fail(err)
			return
		}
		if m.cfg.L2 == nil {
			group = append(group, core.GroupMember{Sys: sys, Mode: m.mode})
			groupAt = append(groupAt, i)
			continue
		}
		rep, err := sys.RunArena(src.name, slab, m.mode)
		r.replayed.Add(1)
		entries[i].rep, entries[i].err = rep, err
	}
	if len(group) == 0 {
		return
	}
	reps, err := core.RunGroupArena(src.name, slab, group)
	r.replayed.Add(int64(len(group)))
	if err != nil {
		fail(fmt.Errorf("experiments: %s group: %w", src.name, err))
		return
	}
	for j, i := range groupAt {
		entries[i].rep, entries[i].err = reps[j], nil
	}
}

// pairs returns the scenario's baseline/proposed pair at each mode over
// src, in mode order.
func (o Options) pairs(s yield.Scenario, src replaySource, modes ...core.Mode) ([]core.Pair, error) {
	base, prop := core.PaperConfig(s, core.Baseline), core.PaperConfig(s, core.Proposed)
	members := make([]member, 0, 2*len(modes))
	for _, m := range modes {
		members = append(members, member{base, m}, member{prop, m})
	}
	reps, err := o.replays.reports(src, members...)
	if err != nil {
		return nil, err
	}
	out := make([]core.Pair, len(modes))
	for i := range modes {
		out[i] = core.Pair{Workload: reps[2*i].Workload, Base: reps[2*i], Prop: reps[2*i+1]}
	}
	return out, nil
}

// corpusPair returns mode m's pair of (s, src) but requests both modes:
// the corpus grid's four design×mode points of one source replay as a
// single pass, and the other mode's task reads its half from the memo.
func (o Options) corpusPair(s yield.Scenario, src replaySource, m core.Mode) (core.Pair, error) {
	ps, err := o.pairs(s, src, core.ModeHP, core.ModeULE)
	if err != nil {
		return core.Pair{}, err
	}
	if m == core.ModeULE {
		return ps[1], nil
	}
	return ps[0], nil
}
