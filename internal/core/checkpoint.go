package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"tensorkmc/internal/frame"
	"tensorkmc/internal/lattice"
)

// Checkpoint format ("TKMCBOX2"): the full simulation state needed to
// resume a run bit-exactly, not just the species array the legacy
// TKMCBOX1 snapshot carries. Layout, all little-endian:
//
//	magic   "TKMCBOX2"                     8 bytes
//	time    float64                        simulated seconds
//	hops    int64                          executed hop count
//	segment uint64                         parallel segment counter
//	flags   uint8                          bit0: RNG state present
//	rng     4 × uint64                     xoshiro256** state (if bit0)
//	nvac    int64                          tracked vacancies in slot order
//	vac     nvac × 3 × int64               half-unit lattice coordinates
//	boxLen  int64                          length of the embedded snapshot
//	box     boxLen bytes                   a complete TKMCBOX1 blob
//	crc     uint32                         IEEE CRC-32 of everything above
//
// It is an internal/frame sealed file: magic, body, CRC trailer. A
// checkpoint must end exactly at the CRC trailer; trailing bytes are
// rejected, and any corruption of the body fails the CRC check instead
// of silently loading garbage state.
const checkpointMagic = "TKMCBOX2"

// Checkpoint is the full resumable state of a Simulation.
type Checkpoint struct {
	// Box is the lattice state.
	Box *lattice.Box
	// Time is the simulated clock in seconds.
	Time float64
	// Hops is the executed hop count.
	Hops int64
	// Segment is the parallel run-segment counter (each segment
	// reseeds with Seed + segment).
	Segment uint64
	// HasRNG reports whether RNG carries a serial-engine stream state.
	HasRNG bool
	// RNG is the serial engine's xoshiro256** state at capture time.
	RNG [4]uint64
	// Vacancies is the serial engine's vacancy slot order at capture
	// time. Slot order is part of the trajectory contract (event
	// selection indexes cumulative propensity ranges by slot), so a
	// bit-exact resume must restore it. Nil for parallel checkpoints,
	// whose ranks rebuild deterministically from the box scan.
	Vacancies []lattice.Vec
}

// Save writes the checkpoint to w in TKMCBOX2 format.
func (c *Checkpoint) Save(w io.Writer) error {
	return frame.Seal(w, checkpointMagic, c.writeBody)
}

// SaveFile writes the checkpoint crash-safely: temp file, fsync, atomic
// rename, with the previous checkpoint rotated to path+".bak" so an
// injected or real failure mid-write always leaves a loadable last-good
// state behind.
func (c *Checkpoint) SaveFile(path string) error {
	return frame.Save(path, checkpointMagic, c.writeBody)
}

// writeBody streams everything between the magic and the CRC trailer.
func (c *Checkpoint) writeBody(w io.Writer) error {
	if c.Box == nil {
		return fmt.Errorf("core: checkpoint has no box")
	}
	var blob bytes.Buffer
	if err := c.Box.Save(&blob); err != nil {
		return fmt.Errorf("core: serialising box: %w", err)
	}
	flags := uint8(0)
	if c.HasRNG {
		flags |= 1
	}
	fields := []any{c.Time, c.Hops, c.Segment, flags}
	if c.HasRNG {
		fields = append(fields, c.RNG[0], c.RNG[1], c.RNG[2], c.RNG[3])
	}
	fields = append(fields, int64(len(c.Vacancies)))
	for _, v := range c.Vacancies {
		fields = append(fields, int64(v.X), int64(v.Y), int64(v.Z))
	}
	fields = append(fields, int64(blob.Len()))
	for _, f := range fields {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	_, err := w.Write(blob.Bytes())
	return err
}

// LoadCheckpoint reads a TKMCBOX2 checkpoint. Legacy TKMCBOX1 box
// snapshots are accepted and yield a box-only checkpoint (zero clock,
// no RNG state), so pre-existing restart files keep working.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}

func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if bytes.HasPrefix(data, []byte("TKMCBOX1")) {
		box, err := lattice.LoadBox(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("core: legacy snapshot: %w", err)
		}
		return &Checkpoint{Box: box}, nil
	}
	body, err := frame.Unseal(data, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	br := bytes.NewReader(body)
	c := &Checkpoint{}
	var flags uint8
	for _, f := range []any{&c.Time, &c.Hops, &c.Segment, &flags} {
		if err := binary.Read(br, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
		}
	}
	if flags&^uint8(1) != 0 {
		return nil, fmt.Errorf("core: unknown checkpoint flags %#x", flags)
	}
	if flags&1 != 0 {
		c.HasRNG = true
		if err := binary.Read(br, binary.LittleEndian, &c.RNG); err != nil {
			return nil, fmt.Errorf("core: reading RNG state: %w", err)
		}
	}
	var nvac int64
	if err := binary.Read(br, binary.LittleEndian, &nvac); err != nil {
		return nil, fmt.Errorf("core: reading vacancy count: %w", err)
	}
	// The whole image is in memory and CRC-checked, so the bytes left
	// bound every count before anything is allocated from it.
	if nvac < 0 || nvac > int64(br.Len())/24 {
		return nil, fmt.Errorf("core: implausible vacancy count %d", nvac)
	}
	if nvac > 0 {
		xyz := make([][3]int64, nvac)
		if err := binary.Read(br, binary.LittleEndian, xyz); err != nil {
			return nil, fmt.Errorf("core: reading vacancy order: %w", err)
		}
		c.Vacancies = make([]lattice.Vec, nvac)
		for i, v := range xyz {
			c.Vacancies[i] = lattice.Vec{X: int(v[0]), Y: int(v[1]), Z: int(v[2])}
		}
	}
	var boxLen int64
	if err := binary.Read(br, binary.LittleEndian, &boxLen); err != nil {
		return nil, fmt.Errorf("core: reading box length: %w", err)
	}
	if boxLen != int64(br.Len()) {
		return nil, fmt.Errorf("core: box blob length %d does not match the %d bytes before the trailer", boxLen, br.Len())
	}
	if math.IsNaN(c.Time) || math.IsInf(c.Time, 0) || c.Time < 0 {
		return nil, fmt.Errorf("core: implausible checkpoint clock %v", c.Time)
	}
	if c.Hops < 0 {
		return nil, fmt.Errorf("core: negative checkpoint hop count %d", c.Hops)
	}
	box, err := lattice.LoadBox(br)
	if err != nil {
		return nil, fmt.Errorf("core: embedded box: %w", err)
	}
	for _, v := range c.Vacancies {
		if !v.IsSite() || box.Wrap(v) != v {
			return nil, fmt.Errorf("core: checkpoint vacancy order names %v, which is not a canonical in-box site", v)
		}
		if box.Get(v) != lattice.Vacancy {
			return nil, fmt.Errorf("core: checkpoint vacancy order names %v, which is not a vacancy in the box", v)
		}
	}
	c.Box = box
	return c, nil
}

// LoadCheckpointFile reads a checkpoint from a path.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}

// LoadCheckpointOrBackup reads the checkpoint at path, falling back to
// the rotated last-good copy at path+".bak" when the primary is
// missing, truncated or corrupt — the recovery path after a crash
// mid-write. The error, when both fail, reports both causes.
func LoadCheckpointOrBackup(path string) (*Checkpoint, error) {
	var c *Checkpoint
	err := frame.Load(path, func(_ string, data []byte) (err error) {
		c, err = decodeCheckpoint(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: loading checkpoint %s: %w", path, err)
	}
	return c, nil
}

// Checkpoint captures the simulation's full resumable state.
func (s *Simulation) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Box:     s.box.Clone(),
		Time:    s.Time(),
		Hops:    s.Hops(),
		Segment: s.segment,
	}
	if s.engine != nil {
		c.HasRNG = true
		c.RNG = s.engine.RNG().State()
		c.Vacancies = s.engine.VacancyCenters()
	}
	return c
}

// SaveCheckpoint writes the current state crash-safely to path (see
// Checkpoint.SaveFile).
func (s *Simulation) SaveCheckpoint(path string) error {
	return s.Checkpoint().SaveFile(path)
}

// restore applies a loaded checkpoint to a freshly built simulation.
func (s *Simulation) restore(c *Checkpoint) error {
	s.segment = c.Segment
	if s.engine == nil {
		s.time = c.Time
		s.hops = c.Hops
		return nil
	}
	// Order matters: the slot order must be imposed before the clock,
	// because SetVacancyOrder refuses engines that have stepped.
	if c.Vacancies != nil {
		if err := s.engine.SetVacancyOrder(c.Vacancies); err != nil {
			return fmt.Errorf("core: restoring vacancy order: %w", err)
		}
	}
	if c.HasRNG {
		if err := s.engine.RNG().Restore(c.RNG); err != nil {
			return fmt.Errorf("core: restoring RNG state: %w", err)
		}
	}
	s.engine.Restore(c.Time, c.Hops)
	return nil
}
