package core

import (
	"fmt"
	"math/rand"

	"edcache/internal/ecc"
	"edcache/internal/faults"
)

// ProtectedWay is a functional (bit-accurate) model of one ULE way's
// storage: every data and tag word is stored as a real codeword of the
// configured EDC code, hard faults from a fault map corrupt it on every
// read, and soft errors can be injected into the stored state. It backs
// the fault-injection example and the reliability-equivalence experiment
// (E7), complementing the analytic yield math with an executable check
// that the architecture really returns correct data on faulty silicon.
type ProtectedWay struct {
	geom      faults.WayGeometry
	dataCodec ecc.Codec
	tagCodec  ecc.Codec
	fmap      *faults.WayFaults
	// store holds each word's codeword at its geom.WordIndex slot; live
	// marks the words written or hit by a soft error, which Scrub visits.
	store []uint64
	live  []bool
}

// NewProtectedWay builds a way with the given geometry, code family and
// fault map. The fault map's word widths must match the codec geometry.
func NewProtectedWay(lines, wordsPerLine int, kind ecc.Kind, dataBits, tagBits int, fmap *faults.WayFaults) (*ProtectedWay, error) {
	dataCodec, err := ecc.New(kind, dataBits)
	if err != nil {
		return nil, err
	}
	tagCodec, err := ecc.New(kind, tagBits)
	if err != nil {
		return nil, err
	}
	geom := faults.WayGeometry{
		Lines:        lines,
		WordsPerLine: wordsPerLine,
		DataWordBits: ecc.TotalBits(dataCodec),
		TagWordBits:  ecc.TotalBits(tagCodec),
	}
	if fmap == nil {
		fmap = faults.Empty(geom)
	}
	fg := fmap.Geometry()
	if fg != geom {
		return nil, fmt.Errorf("core: fault map geometry %+v does not match way geometry %+v", fg, geom)
	}
	return &ProtectedWay{
		geom:      geom,
		dataCodec: dataCodec,
		tagCodec:  tagCodec,
		fmap:      fmap,
		store:     make([]uint64, geom.Words()),
		live:      make([]bool, geom.Words()),
	}, nil
}

// Geometry returns the way's physical geometry (codeword widths).
func (p *ProtectedWay) Geometry() faults.WayGeometry { return p.geom }

// DataCodec returns the codec protecting data words.
func (p *ProtectedWay) DataCodec() ecc.Codec { return p.dataCodec }

func (p *ProtectedWay) checkData(line, word int) {
	if line < 0 || line >= p.geom.Lines || word < 0 || word >= p.geom.WordsPerLine {
		panic(fmt.Sprintf("core: data word (%d,%d) out of range", line, word))
	}
}

// write stores a codeword and marks its word live.
func (p *ProtectedWay) write(k faults.WordKey, codeword uint64) {
	i := p.geom.WordIndex(k)
	p.store[i], p.live[i] = codeword, true
}

// read returns a word's stored codeword as the faulty array delivers it.
func (p *ProtectedWay) read(k faults.WordKey) uint64 {
	return p.fmap.Apply(k, p.store[p.geom.WordIndex(k)])
}

// WriteData encodes and stores a data word.
func (p *ProtectedWay) WriteData(line, word int, value uint64) {
	p.checkData(line, word)
	p.write(faults.WordKey{Line: line, Word: word}, p.dataCodec.Encode(value&ecc.DataMask(p.dataCodec)))
}

// ReadData reads a data word through the fault map and the decoder.
func (p *ProtectedWay) ReadData(line, word int) (uint64, ecc.Result) {
	p.checkData(line, word)
	return p.dataCodec.Decode(p.read(faults.WordKey{Line: line, Word: word}))
}

// WriteTag encodes and stores a line's tag word.
func (p *ProtectedWay) WriteTag(line int, value uint64) {
	if line < 0 || line >= p.geom.Lines {
		panic(fmt.Sprintf("core: tag line %d out of range", line))
	}
	p.write(faults.WordKey{Line: line, Word: p.geom.TagWordIndex()}, p.tagCodec.Encode(value&ecc.DataMask(p.tagCodec)))
}

// ReadTag reads a line's tag word through the fault map and decoder.
func (p *ProtectedWay) ReadTag(line int) (uint64, ecc.Result) {
	if line < 0 || line >= p.geom.Lines {
		panic(fmt.Sprintf("core: tag line %d out of range", line))
	}
	return p.tagCodec.Decode(p.read(faults.WordKey{Line: line, Word: p.geom.TagWordIndex()}))
}

// InjectSoftError flips one random stored bit of the given data word,
// modelling a particle strike between write and read.
func (p *ProtectedWay) InjectSoftError(line, word int, rng *rand.Rand) {
	p.checkData(line, word)
	k := faults.WordKey{Line: line, Word: word}
	p.write(k, faults.FlipRandomBit(p.store[p.geom.WordIndex(k)], ecc.TotalBits(p.dataCodec), rng))
}

// Scrub re-encodes every stored word (written, or hit by a soft error)
// from its current decoded value, clearing accumulated correctable soft
// errors (the periodic scrub the architecture can run at mode
// switches). It returns the number of words whose decode reported an
// uncorrectable error; those words keep their raw contents.
func (p *ProtectedWay) Scrub() int {
	bad := 0
	perLine := p.geom.WordsPerLine + 1
	for i, live := range p.live {
		if !live {
			continue
		}
		k := faults.WordKey{Line: i / perLine, Word: i % perLine}
		var codec ecc.Codec = p.dataCodec
		if k.Word == p.geom.TagWordIndex() {
			codec = p.tagCodec
		}
		v, res := codec.Decode(p.read(k))
		if res.Status == ecc.Detected {
			bad++
			continue
		}
		p.store[i] = codec.Encode(v)
	}
	return bad
}
