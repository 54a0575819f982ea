// Package faults models the hard (manufacturing / low-voltage) faults and
// soft errors the cache architecture must survive. Hard faults are
// stuck-at bits, each cell failing independently with the probability
// supplied by the bitcell model; soft errors are transient single-bit
// flips. The package supports both the Monte-Carlo yield campaigns
// (experiment E7) and the functional fault-injection example.
//
// A fault map costs O(faults), not O(bits): Generate samples the
// geometric gaps between faulty cells instead of testing every cell,
// and WayFaults keeps one stuck mask and value per word, so applying a
// word's faults is a single mask-and-or. Campaign gives every trial its
// own O(1)-seeded source.
package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// BitFault is one stuck-at bit within a stored word.
type BitFault struct {
	Pos   int    // bit position within the codeword
	Stuck uint64 // the value the cell is stuck at (0 or 1)
}

// WordKey addresses one protected word inside a way: line number plus
// word index, where word index len(dataWords) (== WordsPerLine) denotes
// the line's tag word.
type WordKey struct {
	Line int
	Word int
}

// WayGeometry is the fault-relevant geometry of one way.
type WayGeometry struct {
	Lines        int
	WordsPerLine int
	DataWordBits int // total codeword bits per data word (payload+check)
	TagWordBits  int // total codeword bits per tag word
}

// Validate reports whether the geometry is usable.
func (g WayGeometry) Validate() error {
	if g.Lines <= 0 || g.WordsPerLine <= 0 || g.DataWordBits <= 0 || g.TagWordBits <= 0 {
		return fmt.Errorf("faults: invalid geometry %+v", g)
	}
	return nil
}

// TagWordIndex returns the Word value that addresses a line's tag.
func (g WayGeometry) TagWordIndex() int { return g.WordsPerLine }

// TotalBits returns the number of cells in the way.
func (g WayGeometry) TotalBits() int {
	return g.Lines * (g.WordsPerLine*g.DataWordBits + g.TagWordBits)
}

// Words returns the number of protected words in the way: WordsPerLine
// data words plus one tag word per line.
func (g WayGeometry) Words() int { return g.Lines * (g.WordsPerLine + 1) }

// WordIndex returns k's slot in a dense per-word array of g.Words()
// entries: line-major, each line's data words followed by its tag
// word. It panics on a key outside the geometry.
func (g WayGeometry) WordIndex(k WordKey) int {
	if uint(k.Line) >= uint(g.Lines) || uint(k.Word) > uint(g.WordsPerLine) {
		panic(fmt.Sprintf("faults: word %+v outside geometry %+v", k, g))
	}
	return k.Line*(g.WordsPerLine+1) + k.Word
}

// WayFaults is a dense stuck-at fault map over one way: per word (at
// its WordIndex slot) the mask of stuck cells, the values they are
// stuck at, and the number of faults injected there.
type WayFaults struct {
	geom  WayGeometry
	mask  []uint64
	val   []uint64
	n     []int
	count int
	max   int
}

// Generate draws a fault map with independent per-bit probability pf,
// using the supplied RNG (deterministic campaigns seed it explicitly).
// Stuck values are equiprobable 0/1.
//
// Rather than drawing once per cell, Generate samples the gaps between
// faults: over the way's cells in flat order (line-major; each line's
// data words, then its tag word) the run of fault-free cells before
// the next fault is geometric, floor(log(1−U)/log(1−pf)) for one
// uniform U, and each fault then draws its stuck value with
// rng.Intn(2). The map follows the per-bit law at O(faults) cost
// instead of O(bits). pf == 0 draws nothing; pf == 1 marks every cell
// and draws only the stuck values.
func Generate(g WayGeometry, pf float64, rng *rand.Rand) (*WayFaults, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !(pf >= 0 && pf <= 1) {
		return nil, fmt.Errorf("faults: Pf %g outside [0,1]", pf)
	}
	w := Empty(g)
	if pf == 0 {
		return w, nil
	}
	dataBits := g.WordsPerLine * g.DataWordBits
	lineBits := dataBits + g.TagWordBits
	last := g.TotalBits() - 1
	logq := math.Log1p(-pf)
	for pos := -1; ; {
		var gap float64
		if pf < 1 {
			gap = math.Floor(math.Log(1-rng.Float64()) / logq)
		}
		if gap >= float64(last-pos) {
			return w, nil
		}
		pos += int(gap) + 1
		line, r := pos/lineBits, pos%lineBits
		word, bit := g.WordsPerLine, r-dataBits
		if r < dataBits {
			word, bit = r/g.DataWordBits, r%g.DataWordBits
		}
		w.add(g.WordIndex(WordKey{Line: line, Word: word}), bit, uint64(rng.Intn(2)))
	}
}

// Empty returns a fault-free map for the geometry.
func Empty(g WayGeometry) *WayFaults {
	n := g.Words()
	masks := make([]uint64, 2*n)
	return &WayFaults{geom: g, mask: masks[:n], val: masks[n:], n: make([]int, n)}
}

// add records a fault at bit pos of the word in slot i; a later fault
// on the same cell overrides the stuck value but counts again.
func (w *WayFaults) add(i, pos int, stuck uint64) {
	bit := uint64(1) << uint(pos)
	w.mask[i] |= bit
	w.val[i] = w.val[i]&^bit | (stuck&1)<<uint(pos)
	w.n[i]++
	w.count++
	if w.n[i] > w.max {
		w.max = w.n[i]
	}
}

// Inject adds one explicit stuck-at fault (for directed tests and the
// fault-injection example).
func (w *WayFaults) Inject(k WordKey, f BitFault) {
	w.add(w.geom.WordIndex(k), f.Pos, f.Stuck)
}

// Apply forces the stuck bits of the addressed word onto a codeword,
// modelling what the array returns on a read after the word was written.
func (w *WayFaults) Apply(k WordKey, codeword uint64) uint64 {
	i := w.geom.WordIndex(k)
	return codeword&^w.mask[i] | w.val[i]
}

// Count returns the total number of stuck-at cells in the way.
func (w *WayFaults) Count() int { return w.count }

// FaultsIn returns the number of stuck-at cells in one word.
func (w *WayFaults) FaultsIn(k WordKey) int { return w.n[w.geom.WordIndex(k)] }

// MaxPerWord returns the largest number of faults found in any single
// word — the quantity yield analysis cares about (a word with more hard
// faults than the code can dedicate to them is unusable).
func (w *WayFaults) MaxPerWord() int { return w.max }

// Usable reports whether every word has at most `tolerable` hard faults —
// the acceptance criterion of the paper's Eq. (1)/(2).
func (w *WayFaults) Usable(tolerable int) bool { return w.MaxPerWord() <= tolerable }

// Geometry returns the way geometry the map was generated for.
func (w *WayFaults) Geometry() WayGeometry { return w.geom }

// FlipRandomBit injects a transient soft error into the given word of a
// codeword (not the map): it returns the codeword with one uniformly
// chosen bit of the low `bits` flipped.
func FlipRandomBit(codeword uint64, bits int, rng *rand.Rand) uint64 {
	return codeword ^ 1<<uint(rng.Intn(bits))
}

// FlipBurst injects a multi-bit upset: `length` physically adjacent bits
// flipped at a uniformly chosen position within the low `bits` of the
// codeword. At deep-scaled nodes a single particle strike upsets
// neighbouring cells; this is the fault model the bit-interleaving
// extension (ecc.Interleaved, ablation A4) defends against.
func FlipBurst(codeword uint64, bits, length int, rng *rand.Rand) uint64 {
	if length < 1 || length > bits {
		panic(fmt.Sprintf("faults: burst length %d outside [1,%d]", length, bits))
	}
	start := rng.Intn(bits - length + 1)
	mask := (uint64(1)<<uint(length) - 1) << uint(start)
	return codeword ^ mask
}
