package faults

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"edcache/internal/yield"
)

// naiveMap is the reference fault map: the sparse per-word fault lists
// WayFaults kept before it went dense. Faults apply in injection order,
// so the last stuck value written to a cell wins.
type naiveMap struct {
	words map[WordKey][]BitFault
	count int
}

func newNaiveMap() *naiveMap { return &naiveMap{words: make(map[WordKey][]BitFault)} }

func (m *naiveMap) inject(k WordKey, f BitFault) {
	m.words[k] = append(m.words[k], f)
	m.count++
}

func (m *naiveMap) apply(k WordKey, codeword uint64) uint64 {
	for _, f := range m.words[k] {
		mask := uint64(1) << uint(f.Pos)
		codeword = codeword&^mask | f.Stuck<<uint(f.Pos)
	}
	return codeword
}

func (m *naiveMap) maxPerWord() int {
	max := 0
	for _, fs := range m.words {
		if len(fs) > max {
			max = len(fs)
		}
	}
	return max
}

// naiveGenerate is the per-bit reference sampler: one rng.Float64 per
// cell in flat order (line-major; data words, then the tag word), and
// an rng.Intn(2) stuck value for each faulty cell.
func naiveGenerate(g WayGeometry, pf float64, rng *rand.Rand) *naiveMap {
	m := newNaiveMap()
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			n := g.DataWordBits
			if word == g.TagWordIndex() {
				n = g.TagWordBits
			}
			for b := 0; b < n; b++ {
				if rng.Float64() < pf {
					m.inject(WordKey{Line: line, Word: word}, BitFault{Pos: b, Stuck: uint64(rng.Intn(2))})
				}
			}
		}
	}
	return m
}

// die is one sampled fault map reduced to what the oracle compares.
type die struct {
	count  int
	usable bool
	cells  []cell
}

type cell struct {
	word  WordKey
	pos   int
	stuck uint64
}

func denseDie(w *WayFaults) die {
	g := w.Geometry()
	d := die{count: w.Count(), usable: w.Usable(1)}
	for i, mask := range w.mask {
		k := WordKey{Line: i / (g.WordsPerLine + 1), Word: i % (g.WordsPerLine + 1)}
		for ; mask != 0; mask &= mask - 1 {
			pos := bits.TrailingZeros64(mask)
			d.cells = append(d.cells, cell{k, pos, w.val[i] >> uint(pos) & 1})
		}
	}
	return d
}

func naiveDie(m *naiveMap) die {
	d := die{count: m.count, usable: m.maxPerWord() <= 1}
	for k, fs := range m.words {
		for _, f := range fs {
			d.cells = append(d.cells, cell{k, f.Pos, f.Stuck})
		}
	}
	return d
}

// Oracle significance, fixed before any result was looked at: every
// check is a z statistic (χ² statistics are mapped to z by the
// Wilson–Hilferty transform) and fails beyond 4σ — a per-check false
// alarm rate of about 6e-5. The seeds are fixed too; a failure is a
// sampler defect, never a reason to re-seed.
const (
	oracleZ    = 4.0
	oracleDice = 2000
)

// chi2Z maps a χ² statistic with df degrees of freedom to an
// approximately standard-normal z (Wilson–Hilferty).
func chi2Z(chi2 float64, df int) float64 {
	k := float64(df)
	v := 2 / (9 * k)
	return (math.Cbrt(chi2/k) - (1 - v)) / math.Sqrt(v)
}

// twoSampleChi2Z compares two equal-size samples' histograms. Trailing
// bins fold into their predecessor until the last holds at least 10
// observations across both samples; the rest pool greedily from the
// front to the same size, so every expected count is at least 5.
func twoSampleChi2Z(a, b []int) (float64, int) {
	a, b = append([]int(nil), a...), append([]int(nil), b...)
	for len(a) > 1 && a[len(a)-1]+b[len(b)-1] < 10 {
		a[len(a)-2] += a[len(a)-1]
		b[len(b)-2] += b[len(b)-1]
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	chi2, bins := 0.0, 0
	var pa, pb int
	for i := range a {
		pa, pb = pa+a[i], pb+b[i]
		if pa+pb >= 10 {
			chi2 += float64((pa-pb)*(pa-pb)) / float64(pa+pb)
			bins++
			pa, pb = 0, 0
		}
	}
	if bins < 2 {
		return 0, bins - 1
	}
	return chi2Z(chi2, bins-1), bins - 1
}

// uniformChi2Z tests a histogram against expected bin probabilities.
func uniformChi2Z(obs []int, prob []float64) float64 {
	n := 0
	for _, o := range obs {
		n += o
	}
	chi2 := 0.0
	for i, o := range obs {
		e := prob[i] * float64(n)
		chi2 += (float64(o) - e) * (float64(o) - e) / e
	}
	return chi2Z(chi2, len(obs)-1)
}

// proportionZ is the normal-approximation z of k successes in n trials
// against success probability p.
func proportionZ(k, n int, p float64) float64 {
	return (float64(k) - p*float64(n)) / math.Sqrt(float64(n)*p*(1-p))
}

// TestGenerateGapSamplerEquivalence is the statistical-equivalence
// oracle for Generate's geometric-gap sampler against the per-bit
// reference, at the paper's sized ULE-mode Pf and at 10× it, on both
// scenarios' proposed-way geometries. Each sampler draws its own
// oracleDice dice from fixed seeds; the test checks the per-die fault
// count distribution (two-sample χ², and each mean against
// Pf·TotalBits), the uniformity of fault positions (over lines, over
// bit positions within data words, and the data/tag split), the
// stuck-value balance, and the Usable(1) yield against Eq. (2).
func TestGenerateGapSamplerEquivalence(t *testing.T) {
	for si, s := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		res, err := yield.Run(yield.PaperInput(s))
		if err != nil {
			t.Fatal(err)
		}
		check := s.ProposedCode().CheckBits()
		g := WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32 + check, TagWordBits: 26 + check}
		yg := yield.WayGeometry{Lines: 32, WordsPerLine: 8, DataBits: 32, TagBits: 26}
		for pi, scale := range []float64{1, 10} {
			pf := res.ProposedPf * scale
			t.Run(fmt.Sprintf("scenario=%v/pf=%gx", s, scale), func(t *testing.T) {
				base := int64(1_000_000 * (1 + 2*si + pi))
				var gap, ref []die
				for d := 0; d < oracleDice; d++ {
					w, err := Generate(g, pf, rand.New(rand.NewSource(base+int64(d))))
					if err != nil {
						t.Fatal(err)
					}
					gap = append(gap, denseDie(w))
					ref = append(ref, naiveDie(naiveGenerate(g, pf, rand.New(rand.NewSource(base+500_000+int64(d))))))
				}
				checkEquivalent(t, g, pf, gap, ref, yield.WaySurvival(pf, yg, check, check, 1))
			})
		}
	}
}

func checkEquivalent(t *testing.T, g WayGeometry, pf float64, gap, ref []die, analyticYield float64) {
	t.Helper()
	fail := func(what string, z float64) {
		t.Helper()
		if math.Abs(z) > oracleZ || math.IsNaN(z) {
			t.Errorf("%s: z = %.2f beyond %gσ", what, z, oracleZ)
		}
	}
	total := g.TotalBits()
	maxCount := 0
	for _, set := range [][]die{gap, ref} {
		for _, d := range set {
			if d.count > maxCount {
				maxCount = d.count
			}
		}
	}
	hist := func(set []die) []int {
		h := make([]int, maxCount+1)
		for _, d := range set {
			h[d.count]++
		}
		return h
	}
	z, df := twoSampleChi2Z(hist(gap), hist(ref))
	if df < 1 {
		t.Fatalf("fault-count histogram pooled to %d degrees of freedom; fixture too weak", df)
	}
	fail("fault-count distribution, gap vs per-bit (two-sample χ²)", z)

	mean := pf * float64(total)
	sd := math.Sqrt(mean * (1 - pf) / float64(len(gap)))
	for _, side := range []struct {
		name string
		dice []die
	}{{"gap", gap}, {"per-bit", ref}} {
		sum, usable := 0, 0
		lines := make([]int, g.Lines)
		slots := make([]int, g.DataWordBits)
		tagFaults, stuckOnes, n := 0, 0, 0
		for _, d := range side.dice {
			sum += d.count
			if d.usable {
				usable++
			}
			for _, c := range d.cells {
				n++
				lines[c.word.Line]++
				if c.word.Word == g.TagWordIndex() {
					tagFaults++
				} else {
					slots[c.pos]++
				}
				stuckOnes += int(c.stuck)
			}
		}
		fail(side.name+": mean faults per die vs Pf·TotalBits", (float64(sum)/float64(len(side.dice))-mean)/sd)

		lineP := make([]float64, g.Lines)
		for i := range lineP {
			lineP[i] = 1 / float64(g.Lines)
		}
		fail(side.name+": faults uniform over lines (χ²)", uniformChi2Z(lines, lineP))
		slotP := make([]float64, g.DataWordBits)
		for i := range slotP {
			slotP[i] = 1 / float64(g.DataWordBits)
		}
		fail(side.name+": faults uniform over data-word bit positions (χ²)", uniformChi2Z(slots, slotP))
		tagShare := float64(g.Lines*g.TagWordBits) / float64(total)
		fail(side.name+": tag-bit share of faults", proportionZ(tagFaults, n, tagShare))
		fail(side.name+": stuck-at-1 share", proportionZ(stuckOnes, n, 0.5))
		fail(side.name+": Usable(1) yield vs yield.WaySurvival", proportionZ(usable, len(side.dice), analyticYield))
	}
}

// TestGenerateEdgeProbabilities pins the two exact cases: Pf 0 draws
// nothing from the RNG, and Pf 1 marks every cell.
func TestGenerateEdgeProbabilities(t *testing.T) {
	g := paperGeom(39, 33)
	rng := rand.New(rand.NewSource(3))
	w, err := Generate(g, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if w.Count() != 0 || w.MaxPerWord() != 0 {
		t.Errorf("Pf 0: %d faults, max %d per word", w.Count(), w.MaxPerWord())
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(3)).Int63(); got != want {
		t.Error("Pf 0 consumed RNG draws")
	}

	w, err = Generate(g, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if w.Count() != g.TotalBits() || w.MaxPerWord() != g.DataWordBits {
		t.Errorf("Pf 1: %d faults (want %d), max %d per word", w.Count(), g.TotalBits(), w.MaxPerWord())
	}
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			k := WordKey{Line: line, Word: word}
			n := g.DataWordBits
			if word == g.TagWordIndex() {
				n = g.TagWordBits
			}
			full := uint64(1)<<uint(n) - 1
			if w.FaultsIn(k) != n || w.mask[g.WordIndex(k)] != full {
				t.Fatalf("Pf 1: word %+v has %d faults, mask %#x", k, w.FaultsIn(k), w.mask[g.WordIndex(k)])
			}
			// Every cell stuck: the stored value cannot show through.
			if w.Apply(k, 0) != w.Apply(k, full) {
				t.Fatalf("Pf 1: word %+v lets stored bits through", k)
			}
		}
	}
	if _, err := Generate(g, math.NaN(), rng); err == nil {
		t.Error("NaN Pf accepted")
	}
}

// TestWayFaultsMatchesMapReference drives the dense map and the naive
// map through the same random Inject sequences — duplicates on one
// cell included — and requires identical Apply results and
// bookkeeping throughout.
func TestWayFaultsMatchesMapReference(t *testing.T) {
	for _, g := range []WayGeometry{paperGeom(39, 33), paperGeom(45, 39), {Lines: 3, WordsPerLine: 2, DataWordBits: 64, TagWordBits: 7}} {
		rng := rand.New(rand.NewSource(int64(g.DataWordBits)))
		for seq := 0; seq < 50; seq++ {
			dense, ref := Empty(g), newNaiveMap()
			for step := 0; step < 40; step++ {
				k := WordKey{Line: rng.Intn(g.Lines), Word: rng.Intn(g.WordsPerLine + 1)}
				n := g.DataWordBits
				if k.Word == g.TagWordIndex() {
					n = g.TagWordBits
				}
				// Few positions, so the same cell is often hit twice.
				f := BitFault{Pos: rng.Intn(n) % 6, Stuck: uint64(rng.Intn(2))}
				dense.Inject(k, f)
				ref.inject(k, f)
				cw := rng.Uint64()
				if got, want := dense.Apply(k, cw), ref.apply(k, cw); got != want {
					t.Fatalf("%+v seq %d step %d: Apply(%+v) = %#x, want %#x", g, seq, step, k, got, want)
				}
				if dense.FaultsIn(k) != len(ref.words[k]) || dense.Count() != ref.count || dense.MaxPerWord() != ref.maxPerWord() {
					t.Fatalf("%+v seq %d step %d: bookkeeping %d/%d/%d, want %d/%d/%d", g, seq, step,
						dense.FaultsIn(k), dense.Count(), dense.MaxPerWord(), len(ref.words[k]), ref.count, ref.maxPerWord())
				}
			}
			for tol := 0; tol <= 3; tol++ {
				if dense.Usable(tol) != (ref.maxPerWord() <= tol) {
					t.Fatalf("%+v seq %d: Usable(%d) disagrees", g, seq, tol)
				}
			}
		}
	}
}

// TestDuplicateInjectLastValueWins pins the duplicate-cell semantics:
// a second fault on the same cell overrides its stuck value, and both
// count.
func TestDuplicateInjectLastValueWins(t *testing.T) {
	g := paperGeom(39, 33)
	k := WordKey{Line: 5, Word: g.TagWordIndex()}
	w := Empty(g)
	w.Inject(k, BitFault{Pos: 4, Stuck: 1})
	w.Inject(k, BitFault{Pos: 4, Stuck: 0})
	if w.Apply(k, 1<<4) != 0 {
		t.Error("later stuck-at-0 did not override stuck-at-1")
	}
	if w.FaultsIn(k) != 2 || w.Count() != 2 || w.MaxPerWord() != 2 {
		t.Errorf("duplicate counted as %d in word, %d total, max %d", w.FaultsIn(k), w.Count(), w.MaxPerWord())
	}
	if got := g.WordIndex(k); got != 5*9+8 {
		t.Errorf("tag word of line 5 at slot %d, want %d", got, 5*9+8)
	}
}

// TestWordIndexLayout pins the dense slot layout and its range check.
func TestWordIndexLayout(t *testing.T) {
	g := paperGeom(39, 33)
	seen := make([]bool, g.Words())
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			i := g.WordIndex(WordKey{Line: line, Word: word})
			if seen[i] {
				t.Fatalf("slot %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("slot %d unassigned", i)
		}
	}
	for _, k := range []WordKey{{-1, 0}, {g.Lines, 0}, {0, g.WordsPerLine + 1}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WordIndex(%+v) did not panic", k)
				}
			}()
			g.WordIndex(k)
		}()
	}
}
