package core

import (
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/yield"
)

// TestRunGroupBitIdenticalToRunStream is the single-pass engine's
// System-level contract: one RunGroupArena pass over the full
// design×mode group must produce, member by member, Reports
// bit-identical to standalone RunArena — counters, cycles, per-phase
// segmentation, energy — for plain, dependent-load and phase-annotated
// workloads across both scenarios.
func TestRunGroupBitIdenticalToRunStream(t *testing.T) {
	arenas := bench.NewArenaCache()
	for _, sc := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		base := MustNewSystem(PaperConfig(sc, Baseline))
		prop := MustNewSystem(PaperConfig(sc, Proposed))
		members := []GroupMember{
			{base, ModeHP}, {prop, ModeHP}, {base, ModeULE}, {prop, ModeULE},
		}
		for _, name := range []string{"gsm_c", "ptrchase_s", "phased_mix"} {
			w, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w = w.ScaledTo(10_000)
			got, err := RunGroupArena(w.Name, arenas.Get(w), members)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(members) {
				t.Fatalf("%v/%s: %d reports for %d members", sc, name, len(got), len(members))
			}
			for k, gm := range members {
				want, err := gm.Sys.RunArena(w.Name, arenas.Get(w), gm.Mode)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[k], want) {
					t.Errorf("%v/%s member %d (%s/%v): group Report diverges from RunArena",
						sc, name, k, gm.Sys.Config().Name(), gm.Mode)
				}
				if name == "phased_mix" && len(got[k].Phases) == 0 {
					t.Errorf("%v/%s member %d: group replay lost the per-phase segmentation", sc, name, k)
				}
			}
		}
	}
}

// TestGroupDedupSharesSimulators pins the bank-slot sharing that makes
// a design×mode group cheap: baseline and proposed at the same mode
// have identical cache geometry and gating, so the 4-member paper group
// must build only 2 distinct simulators per side.
func TestGroupDedupSharesSimulators(t *testing.T) {
	base := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	prop := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed))
	members := []GroupMember{
		{base, ModeHP}, {prop, ModeHP}, {base, ModeULE}, {prop, ModeULE},
	}
	mp, err := newMultiPort(members, true)
	if err != nil {
		t.Fatal(err)
	}
	if mp.bank.Len() != 2 {
		t.Fatalf("4-member design×mode group built %d simulators, want 2 (one per mode)", mp.bank.Len())
	}
	if mp.slot[0] != mp.slot[1] || mp.slot[2] != mp.slot[3] || mp.slot[0] == mp.slot[2] {
		t.Fatalf("slot assignment %v, want designs sharing per mode", mp.slot)
	}
	// The EDC latency stays per logical member despite the shared slot.
	if mp.ExtraHitLatency(2) != 0 || mp.ExtraHitLatency(3) != 1 {
		t.Fatalf("ULE extra latencies = %d/%d, want 0 (baseline) and 1 (proposed)",
			mp.ExtraHitLatency(2), mp.ExtraHitLatency(3))
	}
	// Gated configurations must not share with ungated ones.
	gatedCfg := PaperConfig(yield.ScenarioA, Baseline)
	gatedCfg.GateULEWaysAtHP = true
	gated := MustNewSystem(gatedCfg)
	mp2, err := newMultiPort([]GroupMember{{base, ModeHP}, {gated, ModeHP}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if mp2.bank.Len() != 2 {
		t.Fatalf("gated and ungated HP members share a simulator (bank len %d)", mp2.bank.Len())
	}
}

func TestRunGroupValidation(t *testing.T) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(100)
	if _, err := RunGroup("x", w.Stream(), nil); err == nil {
		t.Fatal("empty group accepted")
	}
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	if _, err := RunGroup("x", w.Stream(), []GroupMember{{nil, ModeHP}}); err == nil {
		t.Fatal("nil system accepted")
	}
	slowCfg := PaperConfig(yield.ScenarioA, Baseline)
	slowCfg.MemLatency = 30
	slow := MustNewSystem(slowCfg)
	if _, err := RunGroup("x", w.Stream(), []GroupMember{{sys, ModeHP}, {slow, ModeHP}}); err == nil {
		t.Fatal("mixed memory latencies accepted")
	}
}
