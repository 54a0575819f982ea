package faults

import (
	"fmt"
	"math/rand"

	"edcache/internal/sim"
)

// Campaign is a Monte-Carlo silicon-sampling campaign: Trials
// independent fault maps are drawn for the geometry at per-bit
// probability Pf, and each sampled die is accepted when no word holds
// more than Tolerable hard faults (Eq. (1)/(2) acceptance).
type Campaign struct {
	Geometry  WayGeometry
	Pf        float64
	Trials    int
	Tolerable int
}

// CampaignResult summarises one campaign.
type CampaignResult struct {
	Usable int // dies accepted
	Trials int
}

// Yield returns the measured usable fraction.
func (r CampaignResult) Yield() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Usable) / float64(r.Trials)
}

// Run executes the campaign on a worker pool. Every trial derives its
// own RNG from (seed, trial index), so the result is identical for any
// worker count — the property the engine's determinism test locks in.
// The per-trial source is a SplitMix64 generator, seeded in O(1): with
// Generate at O(faults), filling math/rand's 607-word seed table for
// every die would otherwise be most of a campaign's cost.
func (c Campaign) Run(seed int64, workers int) (CampaignResult, error) {
	if c.Trials <= 0 {
		return CampaignResult{}, fmt.Errorf("faults: campaign needs a positive trial count, got %d", c.Trials)
	}
	usable, err := sim.Map(workers, c.Trials, func(i int) (int, error) {
		src := splitMix64(sim.SubSeed(seed, "faults.campaign", i))
		rng := rand.New(&src)
		m, err := Generate(c.Geometry, c.Pf, rng)
		if err != nil {
			return 0, err
		}
		if m.Usable(c.Tolerable) {
			return 1, nil
		}
		return 0, nil
	})
	if err != nil {
		return CampaignResult{}, err
	}
	res := CampaignResult{Trials: c.Trials}
	for _, u := range usable {
		res.Usable += u
	}
	return res, nil
}

// splitMix64 is Steele, Lea & Flood's SplitMix64 generator as a
// math/rand Source64: a Weyl sequence through a 64-bit finalizer, whose
// whole state is the seed.
type splitMix64 uint64

func (s *splitMix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMix64) Seed(seed int64) { *s = splitMix64(seed) }
