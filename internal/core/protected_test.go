package core

import (
	"math/rand"
	"testing"

	"edcache/internal/ecc"
	"edcache/internal/faults"
	"edcache/internal/yield"
)

func TestProtectedWayRoundTrip(t *testing.T) {
	p, err := NewProtectedWay(32, 8, ecc.KindSECDED, 32, 26, nil)
	if err != nil {
		t.Fatal(err)
	}
	for line := 0; line < 32; line += 7 {
		for word := 0; word < 8; word++ {
			v := uint64(line*8+word) * 0x01010101
			p.WriteData(line, word, v)
			got, res := p.ReadData(line, word)
			if got != v&0xFFFFFFFF || res.Status != ecc.OK {
				t.Fatalf("(%d,%d): got %#x %v", line, word, got, res.Status)
			}
		}
		p.WriteTag(line, uint64(line)|0x300_0000)
		tag, res := p.ReadTag(line)
		if tag != (uint64(line)|0x300_0000)&((1<<26)-1) || res.Status != ecc.OK {
			t.Fatalf("tag %d: %#x %v", line, tag, res.Status)
		}
	}
}

func TestProtectedWaySurvivesHardFault(t *testing.T) {
	// Scenario A's claim in functional form: a hard-faulty 8T cell is
	// transparently corrected by SECDED on every read.
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	fm.Inject(faults.WordKey{Line: 5, Word: 3}, faults.BitFault{Pos: 17, Stuck: 1})
	fm.Inject(faults.WordKey{Line: 5, Word: 8}, faults.BitFault{Pos: 2, Stuck: 0}) // tag word
	p, err := NewProtectedWay(32, 8, ecc.KindSECDED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteData(5, 3, 0x0000_0000) // stuck-at-1 disagrees
	got, res := p.ReadData(5, 3)
	if got != 0 {
		t.Fatalf("data corrupted: %#x", got)
	}
	if res.Status != ecc.Corrected {
		t.Fatalf("status %v, want Corrected", res.Status)
	}
	p.WriteTag(5, 0x3FF_FFFF)
	tag, res := p.ReadTag(5)
	if tag != 0x3FF_FFFF || res.Status != ecc.Corrected {
		t.Fatalf("tag: %#x %v", tag, res.Status)
	}
}

func TestProtectedWayScenarioBHardPlusSoft(t *testing.T) {
	// Scenario B's claim: DECTED corrects a hard fault AND a soft error
	// in the same word.
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 45, TagWordBits: 39}
	fm := faults.Empty(geom)
	fm.Inject(faults.WordKey{Line: 1, Word: 0}, faults.BitFault{Pos: 9, Stuck: 1})
	p, err := NewProtectedWay(32, 8, ecc.KindDECTED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		v := rng.Uint64() & 0xFFFFFFFF
		p.WriteData(1, 0, v)
		p.InjectSoftError(1, 0, rng)
		got, res := p.ReadData(1, 0)
		if got != v || res.Status == ecc.Detected {
			t.Fatalf("trial %d: got %#x (%v), want %#x", trial, got, res.Status, v)
		}
	}
}

func TestProtectedWaySECDEDCannotTakeHardPlusSoft(t *testing.T) {
	// The converse: SECDED (scenario A) detects but cannot correct a
	// hard fault plus a soft error — which is exactly why scenario B
	// (soft errors in the requirement) needs DECTED.
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	fm.Inject(faults.WordKey{Line: 0, Word: 0}, faults.BitFault{Pos: 3, Stuck: 1})
	p, err := NewProtectedWay(32, 8, ecc.KindSECDED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	detected := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		p.WriteData(0, 0, 0) // stuck-at-1 at pos 3 is a real fault now
		p.InjectSoftError(0, 0, rng)
		_, res := p.ReadData(0, 0)
		if res.Status == ecc.Detected {
			detected++
		}
	}
	// The soft error occasionally lands on the faulty bit itself (then
	// one error remains, correctable); every other case must be a
	// detected double error.
	if detected < trials*8/10 {
		t.Errorf("only %d/%d hard+soft cases detected by SECDED", detected, trials)
	}
}

func TestProtectedWayScrub(t *testing.T) {
	p, err := NewProtectedWay(4, 2, ecc.KindSECDED, 32, 26, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	p.WriteData(0, 0, 0xABCD)
	p.InjectSoftError(0, 0, rng)
	if bad := p.Scrub(); bad != 0 {
		t.Fatalf("scrub reported %d uncorrectable words", bad)
	}
	// After scrubbing, a second soft error is still correctable.
	p.InjectSoftError(0, 0, rng)
	got, res := p.ReadData(0, 0)
	if got != 0xABCD || res.Status == ecc.Detected {
		t.Fatalf("post-scrub read: %#x %v", got, res.Status)
	}
}

func TestProtectedWayGeometryMismatch(t *testing.T) {
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	// DECTED words are 45/39 bits; a 39/33 map must be rejected.
	if _, err := NewProtectedWay(32, 8, ecc.KindDECTED, 32, 26, fm); err == nil {
		t.Error("mismatched fault-map geometry accepted")
	}
}

// TestReliabilityEquivalence is experiment E7: Monte-Carlo confirmation
// that the proposed design reaches at least the baseline's yield, with
// both designs evaluated functionally (generate silicon, check every
// word is usable).
func TestReliabilityEquivalence(t *testing.T) {
	res, err := yield.Run(yield.PaperInput(yield.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	usableBase, usableProp := 0, 0
	for s := int64(0); s < trials; s++ {
		// Baseline: 10T way, no coding — usable iff zero faults.
		gb := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32, TagWordBits: 26}
		mb, err := faults.Generate(gb, res.BaselinePf, rand.New(rand.NewSource(7000+s)))
		if err != nil {
			t.Fatal(err)
		}
		if mb.Usable(0) {
			usableBase++
		}
		// Proposed: 8T+SECDED — usable iff ≤1 fault per codeword.
		gp := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
		mp, err := faults.Generate(gp, res.ProposedPf, rand.New(rand.NewSource(9000+s)))
		if err != nil {
			t.Fatal(err)
		}
		if mp.Usable(1) {
			usableProp++
		}
	}
	yb := float64(usableBase) / trials
	yp := float64(usableProp) / trials
	// Both must sit near their analytic values (≥98% here), and the
	// proposed design must not be less reliable than the baseline
	// beyond MC noise.
	if yb < 0.97 {
		t.Errorf("baseline MC yield %.3f implausibly low (analytic %.4f)", yb, res.BaselineYield)
	}
	if yp < yb-0.02 {
		t.Errorf("proposed MC yield %.3f below baseline %.3f", yp, yb)
	}
}

// naiveWay is the reference ProtectedWay: the map-backed store and the
// per-word fault lists the dense implementation replaced. Faults apply
// in injection order and Scrub visits exactly the words present in the
// store map.
type naiveWay struct {
	wpl        int
	data, tag  ecc.Codec
	faultsByWd map[faults.WordKey][]faults.BitFault
	store      map[faults.WordKey]uint64
}

func (n *naiveWay) read(k faults.WordKey) uint64 {
	cw := n.store[k]
	for _, f := range n.faultsByWd[k] {
		cw = cw&^(1<<uint(f.Pos)) | f.Stuck<<uint(f.Pos)
	}
	return cw
}

func (n *naiveWay) codec(k faults.WordKey) ecc.Codec {
	if k.Word == n.wpl {
		return n.tag
	}
	return n.data
}

func (n *naiveWay) scrub() int {
	bad := 0
	for k := range n.store {
		v, res := n.codec(k).Decode(n.read(k))
		if res.Status == ecc.Detected {
			bad++
			continue
		}
		n.store[k] = n.codec(k).Encode(v)
	}
	return bad
}

// TestProtectedWayMatchesMapReference drives the dense ProtectedWay and
// the map-backed reference through the same random sequences of
// writes, reads, soft errors and scrubs over the same injected hard
// faults (duplicates on one cell included), and requires identical
// read values, ecc.Results and Scrub counts.
func TestProtectedWayMatchesMapReference(t *testing.T) {
	const lines, wpl = 4, 3
	for _, kind := range []ecc.Kind{ecc.KindSECDED, ecc.KindDECTED} {
		for seq := int64(0); seq < 40; seq++ {
			rng := rand.New(rand.NewSource(100*int64(kind) + seq))
			dataCodec, _ := ecc.New(kind, 32)
			tagCodec, _ := ecc.New(kind, 26)
			geom := faults.WayGeometry{Lines: lines, WordsPerLine: wpl,
				DataWordBits: ecc.TotalBits(dataCodec), TagWordBits: ecc.TotalBits(tagCodec)}
			fm := faults.Empty(geom)
			ref := &naiveWay{wpl: wpl, data: dataCodec, tag: tagCodec,
				faultsByWd: map[faults.WordKey][]faults.BitFault{}, store: map[faults.WordKey]uint64{}}
			for i := rng.Intn(8); i > 0; i-- {
				k := faults.WordKey{Line: rng.Intn(lines), Word: rng.Intn(wpl + 1)}
				f := faults.BitFault{Pos: rng.Intn(8), Stuck: uint64(rng.Intn(2))}
				fm.Inject(k, f)
				ref.faultsByWd[k] = append(ref.faultsByWd[k], f)
			}
			p, err := NewProtectedWay(lines, wpl, kind, 32, 26, fm)
			if err != nil {
				t.Fatal(err)
			}
			softP := rand.New(rand.NewSource(seq))
			softRef := rand.New(rand.NewSource(seq))
			for step := 0; step < 200; step++ {
				line, word := rng.Intn(lines), rng.Intn(wpl)
				dk := faults.WordKey{Line: line, Word: word}
				tk := faults.WordKey{Line: line, Word: wpl}
				switch op := rng.Intn(6); op {
				case 0:
					v := rng.Uint64()
					p.WriteData(line, word, v)
					ref.store[dk] = dataCodec.Encode(v & ecc.DataMask(dataCodec))
				case 1:
					v := rng.Uint64()
					p.WriteTag(line, v)
					ref.store[tk] = tagCodec.Encode(v & ecc.DataMask(tagCodec))
				case 2:
					got, gres := p.ReadData(line, word)
					want, wres := dataCodec.Decode(ref.read(dk))
					if got != want || gres != wres {
						t.Fatalf("%v seq %d step %d: ReadData(%d,%d) = %#x %+v, want %#x %+v", kind, seq, step, line, word, got, gres, want, wres)
					}
				case 3:
					got, gres := p.ReadTag(line)
					want, wres := tagCodec.Decode(ref.read(tk))
					if got != want || gres != wres {
						t.Fatalf("%v seq %d step %d: ReadTag(%d) = %#x %+v, want %#x %+v", kind, seq, step, line, got, gres, want, wres)
					}
				case 4:
					p.InjectSoftError(line, word, softP)
					ref.store[dk] = faults.FlipRandomBit(ref.store[dk], ecc.TotalBits(dataCodec), softRef)
				case 5:
					if got, want := p.Scrub(), ref.scrub(); got != want {
						t.Fatalf("%v seq %d step %d: Scrub = %d, want %d", kind, seq, step, got, want)
					}
				}
			}
		}
	}
}

// TestProtectedWayScrubVisitsLiveWordsOnly pins which words Scrub
// visits: a faulty word never written is skipped, and a soft error on
// it makes it live. The word's every cell is stuck, two of them at 1,
// so whatever is stored it reads as a detected double error.
func TestProtectedWayScrubVisitsLiveWordsOnly(t *testing.T) {
	geom := faults.WayGeometry{Lines: 4, WordsPerLine: 2, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	k := faults.WordKey{Line: 2, Word: 1}
	for pos := 0; pos < geom.DataWordBits; pos++ {
		stuck := uint64(0)
		if pos == 3 || pos == 20 {
			stuck = 1
		}
		fm.Inject(k, faults.BitFault{Pos: pos, Stuck: stuck})
	}
	p, err := NewProtectedWay(4, 2, ecc.KindSECDED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteData(0, 0, 7)
	if bad := p.Scrub(); bad != 0 {
		t.Fatalf("Scrub visited the unwritten faulty word: %d uncorrectable", bad)
	}
	p.InjectSoftError(k.Line, k.Word, rand.New(rand.NewSource(1)))
	if bad := p.Scrub(); bad != 1 {
		t.Fatalf("Scrub after a soft error on the unwritten word: %d uncorrectable, want 1", bad)
	}
}

// TestProtectedWayTagFaultSlot checks a hard fault injected at a line's
// tag word reaches ReadTag and no data word of that line or the next.
func TestProtectedWayTagFaultSlot(t *testing.T) {
	geom := faults.WayGeometry{Lines: 4, WordsPerLine: 2, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	fm.Inject(faults.WordKey{Line: 1, Word: geom.TagWordIndex()}, faults.BitFault{Pos: 0, Stuck: 1})
	p, err := NewProtectedWay(4, 2, ecc.KindSECDED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	for line := 0; line < 4; line++ {
		p.WriteTag(line, 0x100)
		for w := 0; w < 2; w++ {
			p.WriteData(line, w, 0x100)
		}
	}
	for line := 0; line < 4; line++ {
		want := ecc.OK
		if line == 1 {
			want = ecc.Corrected
		}
		if v, res := p.ReadTag(line); v != 0x100 || res.Status != want {
			t.Errorf("ReadTag(%d) = %#x %v, want 0x100 %v", line, v, res.Status, want)
		}
		for w := 0; w < 2; w++ {
			if v, res := p.ReadData(line, w); v != 0x100 || res.Status != ecc.OK {
				t.Errorf("ReadData(%d,%d) = %#x %v, want clean", line, w, v, res.Status)
			}
		}
	}
}
