package nnp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"tensorkmc/internal/fault"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
)

// Binary potential file format ("TKMCPOT1"): little-endian, no external
// dependencies, stable across platforms. Layout:
//
//	magic [8]byte
//	rcut float64, nEl int32, nPQ int32, (p,q) pairs float64×2 each
//	hasNorm uint8; if 1: dim float64 means then dim float64 stds
//	eref float64 × NumElements
//	per element: nSizes int32, sizes..., per layer: W data, B data
const potentialMagic = "TKMCPOT1"

// Save writes the potential to w. It refuses, before writing a byte, a
// potential that Load would refuse, so no writer leaves a file a deck
// cannot use.
func (p *Potential) Save(w io.Writer) error {
	if err := p.checkParams(); err != nil {
		return err
	}
	return p.encode(w)
}

// encode writes the potential to w without checking its parameters.
func (p *Potential) encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(potentialMagic); err != nil {
		return err
	}
	write := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := write(p.Desc.Rcut); err != nil {
		return err
	}
	if err := write(int32(p.Desc.NEl)); err != nil {
		return err
	}
	if err := write(int32(len(p.Desc.PQ))); err != nil {
		return err
	}
	for _, s := range p.Desc.PQ {
		if err := write(s.P); err != nil {
			return err
		}
		if err := write(s.Q); err != nil {
			return err
		}
	}
	hasNorm := uint8(0)
	if p.FeatMean != nil {
		hasNorm = 1
	}
	if err := write(hasNorm); err != nil {
		return err
	}
	if hasNorm == 1 {
		if err := write(p.FeatMean); err != nil {
			return err
		}
		if err := write(p.FeatStd); err != nil {
			return err
		}
	}
	if err := write(p.ERef[:]); err != nil {
		return err
	}
	for _, net := range p.Nets {
		if err := write(int32(len(net.Sizes))); err != nil {
			return err
		}
		for _, s := range net.Sizes {
			if err := write(int32(s)); err != nil {
				return err
			}
		}
		for _, l := range net.Layers {
			if err := write(l.W.Data); err != nil {
				return err
			}
			if err := write(l.B); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a potential written by Save.
func Load(r io.Reader) (*Potential, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(potentialMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nnp: reading magic: %w", err)
	}
	if string(magic) != potentialMagic {
		return nil, fmt.Errorf("nnp: bad magic %q", magic)
	}
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var rcut float64
	var nEl, nPQ int32
	if err := read(&rcut); err != nil {
		return nil, err
	}
	if math.IsNaN(rcut) || rcut <= 0 || rcut > 1e3 {
		return nil, fmt.Errorf("nnp: implausible cutoff %v", rcut)
	}
	if err := read(&nEl); err != nil {
		return nil, err
	}
	if err := read(&nPQ); err != nil {
		return nil, err
	}
	if nEl != lattice.NumElements {
		return nil, fmt.Errorf("nnp: potential has %d elements, this build supports %d", nEl, lattice.NumElements)
	}
	if nPQ <= 0 || nPQ > 4096 {
		return nil, fmt.Errorf("nnp: implausible channel count %d", nPQ)
	}
	pq := make([]feature.PQ, nPQ)
	for i := range pq {
		if err := read(&pq[i].P); err != nil {
			return nil, err
		}
		if err := read(&pq[i].Q); err != nil {
			return nil, err
		}
		// NewDescriptor panics on invalid hyper-parameters; a corrupt
		// file must error instead.
		if math.IsNaN(pq[i].P) || math.IsNaN(pq[i].Q) || pq[i].P <= 0 || pq[i].Q <= 0 {
			return nil, fmt.Errorf("nnp: invalid (p,q) pair %d: %+v", i, pq[i])
		}
	}
	desc := feature.NewDescriptor(pq, int(nEl), rcut)
	p := &Potential{Desc: desc}
	var hasNorm uint8
	if err := read(&hasNorm); err != nil {
		return nil, err
	}
	if hasNorm > 1 {
		return nil, fmt.Errorf("nnp: invalid normalisation flag %d", hasNorm)
	}
	if hasNorm == 1 {
		p.FeatMean = make([]float64, desc.Dim())
		p.FeatStd = make([]float64, desc.Dim())
		if err := read(p.FeatMean); err != nil {
			return nil, err
		}
		if err := read(p.FeatStd); err != nil {
			return nil, err
		}
	}
	if err := read(p.ERef[:]); err != nil {
		return nil, err
	}
	for e := range p.Nets {
		var nSizes int32
		if err := read(&nSizes); err != nil {
			return nil, err
		}
		if nSizes < 2 || nSizes > 64 {
			return nil, fmt.Errorf("nnp: implausible layer count %d", nSizes)
		}
		sizes := make([]int, nSizes)
		for i := range sizes {
			var s int32
			if err := read(&s); err != nil {
				return nil, err
			}
			if s <= 0 || s > 1<<20 {
				return nil, fmt.Errorf("nnp: implausible layer size %d", s)
			}
			sizes[i] = int(s)
		}
		if sizes[0] != desc.Dim() {
			return nil, fmt.Errorf("nnp: network input %d != descriptor dim %d", sizes[0], desc.Dim())
		}
		// Bound the weight allocation each layer implies: a corrupt header
		// with two 2^20 layer sizes would otherwise request a terabyte
		// matrix before any payload byte is read.
		const maxLayerParams = 1 << 24
		for l := 0; l+1 < len(sizes); l++ {
			if sizes[l]*sizes[l+1] > maxLayerParams {
				return nil, fmt.Errorf("nnp: layer %d needs %d weights (limit %d)", l, sizes[l]*sizes[l+1], maxLayerParams)
			}
		}
		net := &Network{Sizes: sizes}
		for l := 0; l+1 < len(sizes); l++ {
			layer := Layer{
				W:    NewMatrix(sizes[l], sizes[l+1]),
				B:    make([]float64, sizes[l+1]),
				Relu: l+2 < len(sizes),
			}
			if err := read(layer.W.Data); err != nil {
				return nil, err
			}
			if err := read(layer.B); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, layer)
		}
		p.Nets[e] = net
	}
	// A well-formed potential ends exactly after the last network; extra
	// bytes mean a corrupt or foreign file.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("nnp: trailing garbage after potential payload")
	}
	if err := p.checkParams(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkParams rejects a NaN or ±Inf anywhere in the parameters, so a
// corrupt file fails at load instead of at the first hop's
// checkFiniteEnergy tripwire, and a feature std at or below zero.
func (p *Potential) checkParams() error {
	check := func(what string, v []float64) error {
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("nnp: non-finite %s[%d] = %v", what, i, x)
			}
		}
		return nil
	}
	if err := check("feature mean", p.FeatMean); err != nil {
		return err
	}
	if err := check("feature std", p.FeatStd); err != nil {
		return err
	}
	if err := check("reference energy", p.ERef[:]); err != nil {
		return err
	}
	for e, net := range p.Nets {
		for l, layer := range net.Layers {
			if err := check(fmt.Sprintf("element %d layer %d weight", e, l), layer.W.Data); err != nil {
				return err
			}
			if err := check(fmt.Sprintf("element %d layer %d bias", e, l), layer.B); err != nil {
				return err
			}
		}
	}
	// Normalisation divides by every std; training clamps a degenerate
	// one to 1, so zero or negative can only mean corruption.
	for c, sd := range p.FeatStd {
		if !(sd > 0) {
			return fmt.Errorf("nnp: feature std of channel %d (element %d, (p,q) set %d) is %v, want > 0",
				c, c/p.Desc.NDim(), c%p.Desc.NDim(), sd)
		}
	}
	return nil
}

// SaveFile writes the potential to path via a temp file and atomic
// rename, so a crash mid-write can never truncate an existing good file.
func (p *Potential) SaveFile(path string) error {
	return fault.WriteFileAtomic(path, false, p.Save)
}

// LoadFile reads a potential from path.
func LoadFile(path string) (*Potential, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
