package lattice

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary snapshot format ("TKMCBOX1"): the box geometry plus the raw
// species array. Used for checkpoint/restart of long runs.
const boxMagic = "TKMCBOX1"

// Save writes a binary snapshot of the box to w.
func (b *Box) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(boxMagic); err != nil {
		return err
	}
	for _, v := range []int64{int64(b.Nx), int64(b.Ny), int64(b.Nz)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, b.A); err != nil {
		return err
	}
	if _, err := bw.Write(toBytes(b.types)); err != nil {
		return err
	}
	return bw.Flush()
}

func toBytes(s []Species) []byte {
	out := make([]byte, len(s))
	for i, v := range s {
		out[i] = byte(v)
	}
	return out
}

// LoadBox reads a snapshot written by Save.
func LoadBox(r io.Reader) (*Box, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(boxMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("lattice: reading magic: %w", err)
	}
	if string(magic) != boxMagic {
		return nil, fmt.Errorf("lattice: bad magic %q", magic)
	}
	var dims [3]int64
	for i := range dims {
		if err := binary.Read(br, binary.LittleEndian, &dims[i]); err != nil {
			return nil, err
		}
		if dims[i] <= 0 || dims[i] > 1<<20 {
			return nil, fmt.Errorf("lattice: implausible dimension %d", dims[i])
		}
	}
	// Per-axis bounds still admit a ~2^61-site product; cap the total
	// allocation a header can demand before any payload is read.
	const maxSites = 1 << 28
	if 2*dims[0]*dims[1]*dims[2] > maxSites {
		return nil, fmt.Errorf("lattice: header requests %d sites (limit %d)", 2*dims[0]*dims[1]*dims[2], maxSites)
	}
	var a float64
	if err := binary.Read(br, binary.LittleEndian, &a); err != nil {
		return nil, err
	}
	if math.IsNaN(a) || a <= 0 || a > 1e6 {
		return nil, fmt.Errorf("lattice: implausible lattice constant %v", a)
	}
	box := NewBox(int(dims[0]), int(dims[1]), int(dims[2]), a)
	raw := make([]byte, len(box.types))
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, err
	}
	for i, v := range raw {
		if v > byte(Vacancy) {
			return nil, fmt.Errorf("lattice: invalid species %d at site %d", v, i)
		}
		box.types[i] = Species(v)
	}
	// A well-formed snapshot ends exactly at the species payload; extra
	// bytes mean the header and body disagree (a corrupt or foreign file).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("lattice: trailing garbage after %d-site payload", len(raw))
	}
	return box, nil
}

// WriteXYZ exports the box in extended-XYZ format (readable by OVITO and
// similar visualisers — how the paper's Fig. 14 renders were produced).
// onlySolute limits output to Cu atoms and vacancies, which keeps files
// tractable for dilute-alloy snapshots.
func (b *Box) WriteXYZ(w io.Writer, comment string, onlySolute bool) error {
	bw := bufio.NewWriter(w)
	count := 0
	for _, s := range b.types {
		if !onlySolute || s != Fe {
			count++
		}
	}
	if _, err := fmt.Fprintf(bw, "%d\n", count); err != nil {
		return err
	}
	lx := float64(b.Nx) * b.A
	ly := float64(b.Ny) * b.A
	lz := float64(b.Nz) * b.A
	if _, err := fmt.Fprintf(bw, "Lattice=\"%g 0 0 0 %g 0 0 0 %g\" Properties=species:S:1:pos:R:3 %s\n",
		lx, ly, lz, comment); err != nil {
		return err
	}
	for i, s := range b.types {
		if onlySolute && s == Fe {
			continue
		}
		p := b.PositionOf(i, b.A)
		name := s.String()
		if s == Vacancy {
			name = "X" // conventional vacancy marker
		}
		if _, err := fmt.Fprintf(bw, "%s %.4f %.4f %.4f\n", name, p[0], p[1], p[2]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
