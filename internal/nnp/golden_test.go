package nnp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tensorkmc/internal/feature"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// TestFormatGoldenPotential pins the TKMCPOT1 potential file: the SHA-256
// of a seeded two-layer potential with non-trivial normalisation and
// reference energies, so every section of the format is in the hash.
func TestFormatGoldenPotential(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := NewPotential(desc, []int{desc.Dim(), 4, 1}, rng.New(7))
	pot.ERef = [2]float64{-4.013, -3.54}
	pot.FeatMean = make([]float64, desc.Dim())
	pot.FeatStd = make([]float64, desc.Dim())
	for c := range pot.FeatMean {
		pot.FeatMean[c] = 0.25 + 0.03125*float64(c%7)
		pot.FeatStd[c] = 1.5 + 0.0625*float64(c%5)
	}
	var buf bytes.Buffer
	if err := pot.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if buf.Len() != goldenPotentialBytes || got != goldenPotentialSHA {
		t.Fatalf("TKMCPOT1 image moved: %d bytes, sha256 %s; golden %d bytes, %s",
			buf.Len(), got, goldenPotentialBytes, goldenPotentialSHA)
	}
}

// Recorded at commit 6cf97e0, before the framing layer was extracted,
// go1.24 linux/amd64.
const (
	goldenPotentialBytes = 5849
	goldenPotentialSHA   = "c51d6aa1314b575454c45f4b725b55a4670d002171817b06b248e07a5e8b6597"
)
