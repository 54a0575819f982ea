package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"edcache/internal/core"
	"edcache/internal/ecc"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// replayingExperiments are the experiments that read the replay memo.
var replayingExperiments = []string{
	"fig3", "fig4", "headline", "corpus", "phase-epi",
	"a1-waysplit", "a2-memlat", "a5-ulereuse", "hier-epi", "shared-l2",
}

// renderJSON renders results through the JSON sink, as the CLI does.
func renderJSON(t *testing.T, results []sim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink, err := sim.NewSink("json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedMemoNeverChangesAResult runs the whole registry, whose
// experiments share one replay memo, and then each replaying
// experiment alone on a registry of its own: the alone run must render
// byte-identical to that experiment's section of the shared run, at
// one worker and at four. A phased trace file and a non-default L2
// axis put file-backed and hierarchy members in the memo too.
func TestSharedMemoNeverChangesAResult(t *testing.T) {
	phased, err := workloadByName("phased_mix", 3_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(workers int) Options {
		o := tinyOptions()
		o.Workers = workers
		o.TraceFiles = []string{writeWorkloadTrace(t, phased, trace.V2Options{Phases: true})}
		o.L2Geometries = []L2Geometry{{Sets: 64, Ways: 4}}
		return o
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := opts(workers)
			reg := sim.NewRegistry()
			RegisterAll(reg, o)
			runner := sim.Runner{Workers: workers, Seed: 11}
			all, err := runner.RunAll(reg, reg.Names())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range replayingExperiments {
				var section []sim.Result
				for _, r := range all {
					if r.Experiment == name {
						section = append(section, r)
					}
				}
				if len(section) == 0 {
					t.Fatalf("%s: no results in the shared run", name)
				}
				alone := sim.NewRegistry()
				RegisterAll(alone, o)
				res, err := runner.RunAll(alone, []string{name})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderJSON(t, res), renderJSON(t, section)) {
					t.Errorf("%s: run alone differs from its section of the shared run", name)
				}
			}
		})
	}
}

// TestReplayMemoRunsEachKeyOnce has concurrent callers request
// overlapping member sets — duplicates inside one request included —
// and checks that each distinct (design point, mode, source) key is
// replayed exactly once, and that every Report equals a standalone
// RunArena of its member.
func TestReplayMemoRunsEachKeyOnce(t *testing.T) {
	o := Options{Instructions: 3_000}.withDefaults()
	memo := o.replays
	var candidates []member
	for _, s := range scenarios {
		for _, d := range []core.Design{core.Baseline, core.Proposed} {
			for _, m := range []core.Mode{core.ModeHP, core.ModeULE} {
				candidates = append(candidates, member{core.PaperConfig(s, d), m})
			}
		}
	}
	gated := core.PaperConfig(yield.ScenarioA, core.Proposed)
	gated.GateULEWaysAtHP = true
	candidates = append(candidates,
		member{gated, core.ModeHP},
		member{hierConfig(o, L2Geometry{Sets: 64, Ways: 4}, ecc.KindSECDED), core.ModeHP})
	sources := []replaySource{workloadSource("gsm_c"), workloadSource("phased_mix")}

	type request struct {
		src     replaySource
		members []member
	}
	var reqs []request
	distinct := map[replayKey]bool{}
	for i := 0; i < 24; i++ {
		src := sources[i%len(sources)]
		var ms []member
		for j, c := range candidates {
			if (i+j)%3 != 0 {
				ms = append(ms, c)
				distinct[replayKey{design: designOf(c.cfg), mode: c.mode, src: src}] = true
			}
		}
		ms = append(ms, ms[0]) // a duplicate inside one request
		reqs = append(reqs, request{src, ms})
	}

	got := make([][]core.Report, len(reqs))
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq request) {
			defer wg.Done()
			reps, err := memo.reports(rq.src, rq.members...)
			if err != nil {
				errs <- err
				return
			}
			got[i] = reps
		}(i, rq)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := memo.replayed.Load(); n != int64(len(distinct)) {
		t.Fatalf("memo replayed %d members for %d distinct keys", n, len(distinct))
	}

	want := map[replayKey]core.Report{}
	for k := range distinct {
		w, err := workloadByName(k.src.name, o.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.MustNewSystem(k.design.config()).RunArena(w.Name, trace.NewArena(w.Stream()), k.mode)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = rep
	}
	for i, rq := range reqs {
		for j, m := range rq.members {
			k := replayKey{design: designOf(m.cfg), mode: m.mode, src: rq.src}
			if !reflect.DeepEqual(got[i][j], want[k]) {
				t.Errorf("request %d member %d (%s/%v on %s): memo report differs from a standalone replay",
					i, j, m.cfg.Name(), m.mode, rq.src.name)
			}
		}
	}

	// Every key is now filled: further requests replay nothing.
	before := memo.replayed.Load()
	if _, err := memo.reports(sources[0], candidates...); err != nil {
		t.Fatal(err)
	}
	if memo.replayed.Load() != before {
		t.Fatal("a fully memoized request replayed again")
	}
}

// TestReplayMemoErrorsReachEveryWaiter checks that a source that fails
// to open fails every requester of its keys instead of blocking them.
func TestReplayMemoErrorsReachEveryWaiter(t *testing.T) {
	o := Options{Instructions: 1_000}.withDefaults()
	src := replaySource{name: "trace:missing", path: "/nonexistent/missing.trace"}
	m := member{core.PaperConfig(yield.ScenarioA, core.Proposed), core.ModeHP}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := o.replays.reports(src, m); err == nil {
				t.Error("missing trace file replayed without error")
			}
		}()
	}
	wg.Wait()
	if _, err := o.replays.reports(workloadSource("no_such_workload"), m); err == nil {
		t.Fatal("unknown workload replayed without error")
	}
}

// TestDesignKeyRoundTrip pins the by-value L2 key: equal geometries
// behind distinct pointers are one key, and config() restores the L2.
func TestDesignKeyRoundTrip(t *testing.T) {
	o := Options{}.withDefaults()
	a := hierConfig(o, L2Geometry{Sets: 128, Ways: 8}, ecc.KindNone)
	b := hierConfig(o, L2Geometry{Sets: 128, Ways: 8}, ecc.KindNone)
	if a.L2 == b.L2 || designOf(a) != designOf(b) {
		t.Fatal("equal L2 geometries behind distinct pointers must share a key")
	}
	if got := designOf(a).config(); got.L2 == nil || *got.L2 != *a.L2 {
		t.Fatalf("config() lost the L2: %+v", got.L2)
	}
	flat := core.PaperConfig(yield.ScenarioA, core.Proposed)
	if designOf(flat) == designOf(a) || designOf(flat).config().L2 != nil {
		t.Fatal("flat design must key apart from its tiered sibling and keep a nil L2")
	}
}
