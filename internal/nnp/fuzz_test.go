package nnp

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"

	"tensorkmc/internal/feature"
)

// FuzzLoadPotential feeds Load corrupted potential files: it must never
// panic or attempt absurd allocations, and whenever it succeeds the
// result must round-trip to exactly the input bytes (the format is
// canonical, so anything else is a silent success on corruption).
func FuzzLoadPotential(f *testing.F) {
	desc := feature.Standard(units.CutoffStandard)
	pot := NewPotential(desc, []int{desc.Dim(), 4, 1}, rng.New(7))
	pot.FeatMean = make([]float64, desc.Dim())
	pot.FeatStd = make([]float64, desc.Dim())
	for i := range pot.FeatStd {
		pot.FeatMean[i] = 0.01 * float64(i)
		pot.FeatStd[i] = 1
	}
	var buf bytes.Buffer
	if err := pot.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:8])                        // magic only
	f.Add(valid[:len(valid)/3])             // truncated
	f.Add(append(bytes.Clone(valid), 0x00)) // trailing garbage
	for _, i := range []int{0, 10, 16, 24, 25, len(valid) / 2, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	// The last eight bytes are the final bias: a NaN there must be rejected.
	nan := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(nan[len(nan)-8:], math.Float64bits(math.NaN()))
	f.Add(nan)
	// The stds follow the magic, the descriptor header (8 + 4 + 4 bytes),
	// the (p,q) pairs, the normalisation flag and the means: a zero std
	// there must be rejected.
	zeroStd := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(zeroStd[8+16+16*len(desc.PQ)+1+8*desc.Dim():], 0)
	if _, err := Load(bytes.NewReader(zeroStd)); err == nil || !strings.Contains(err.Error(), "feature std of channel 0") {
		f.Fatalf("zero-std seed: Load error %v, want one naming channel 0", err)
	}
	f.Add(zeroStd)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.Desc == nil || p.Desc.Dim() <= 0 {
			t.Fatal("accepted potential with invalid descriptor")
		}
		params := [][]float64{p.FeatMean, p.FeatStd, p.ERef[:]}
		for e, net := range p.Nets {
			if net == nil || len(net.Sizes) < 2 || net.Sizes[0] != p.Desc.Dim() {
				t.Fatalf("accepted inconsistent network for element %d", e)
			}
			for _, l := range net.Layers {
				params = append(params, l.W.Data, l.B)
			}
		}
		for _, v := range params {
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted non-finite parameter %v", x)
				}
			}
		}
		for c, sd := range p.FeatStd {
			if !(sd > 0) {
				t.Fatalf("accepted feature std %v on channel %d", sd, c)
			}
		}
		var out bytes.Buffer
		if err := p.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted non-canonical input (%d bytes in, %d bytes round-tripped)", len(data), out.Len())
		}
	})
}
