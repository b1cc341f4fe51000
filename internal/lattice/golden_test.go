package lattice

import (
	"bytes"
	"encoding/hex"
	"testing"

	"tensorkmc/internal/rng"
)

// TestFormatGoldenBox pins the TKMCBOX1 snapshot byte for byte: a seeded
// 3×2×2-cell alloy with Cu and vacancies, so the header (magic, three
// cell counts, lattice constant) and all three species codes appear in
// the literal. A change that moves one byte of the format fails here.
func TestFormatGoldenBox(t *testing.T) {
	b := NewBox(3, 2, 2, 2.87)
	FillRandomAlloy(b, 0.25, 0.1, rng.New(5))
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenBox {
		t.Fatalf("TKMCBOX1 bytes moved:\n got %s\nwant %s", got, goldenBox)
	}
}

// Recorded at commit 6cf97e0, before the framing layer was extracted,
// go1.24 linux/amd64.
const goldenBox = "544b4d43424f5831030000000000000002000000000000000200000000000000f6285c8fc2f50640000000000000010002020000010001010000010100000000"
