// Package tensorkmc is the public API of the TensorKMC reproduction: an
// atomistic kinetic Monte Carlo (AKMC) simulator for bcc Fe–Cu alloys
// driven by neural network potentials, re-implementing the system of
// "TensorKMC: Kinetic Monte Carlo Simulation of 50 Trillion Atoms Driven
// by Deep Learning on a New Generation of Sunway Supercomputer" (SC '21).
//
// The package is a thin facade over internal/core (the coupled engine)
// plus the training and analysis entry points the examples and tools
// use. See README.md for a walkthrough and DESIGN.md for the system
// inventory.
package tensorkmc

import (
	"tensorkmc/internal/cluster"
	"tensorkmc/internal/core"
	"tensorkmc/internal/dataset"
	"tensorkmc/internal/diffusion"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/train"
	"tensorkmc/internal/units"
)

// Re-exported configuration and result types.
type (
	// Config describes a simulation box, composition, potential and
	// (optional) parallel decomposition.
	Config = core.Config
	// Simulation is a configured TensorKMC run.
	Simulation = core.Simulation
	// Report summarises a run segment.
	Report = core.Report
	// Event is one executed vacancy hop.
	Event = kmc.Event
	// Analysis is a Cu precipitate cluster analysis.
	Analysis = cluster.Analysis
	// Potential is a trained neural network potential.
	Potential = nnp.Potential
	// TrainOptions configures NNP fitting.
	TrainOptions = train.Options
	// TrainMetrics reports Fig. 7-style parity metrics.
	TrainMetrics = train.Metrics
	// Structure is one labelled training configuration.
	Structure = dataset.Structure
)

// Potential kinds for Config.Potential.
const (
	EAM = core.EAM
	NNP = core.NNP
)

// Physical defaults from the paper.
const (
	LatticeConstantFe  = units.LatticeConstantFe
	CutoffStandard     = units.CutoffStandard
	CutoffShort        = units.CutoffShort
	ReactorTemperature = units.ReactorTemperature
)

// New builds a simulation from a configuration.
func New(cfg Config) (*Simulation, error) { return core.New(cfg) }

// LoadPotential reads a trained potential from a file written by
// SavePotential or cmd/tkmc-train.
func LoadPotential(path string) (*Potential, error) { return nnp.LoadFile(path) }

// SavePotential writes a trained potential to a file.
func SavePotential(p *Potential, path string) error { return p.SaveFile(path) }

// GenerateDataset samples n synthetic-DFT-labelled Fe–Cu structures with
// the default protocol (60–64-atom supercells, random Cu/vacancies,
// thermal displacements; labels from the analytic EAM oracle standing in
// for FHI-aims — see DESIGN.md).
func GenerateDataset(n int, seed uint64) []Structure {
	oracle := eam.New(eam.Default())
	return dataset.Generate(n, oracle, dataset.DefaultConfig(), rng.New(seed))
}

// SplitDataset partitions structures into train/test sets.
func SplitDataset(structs []Structure, nTrain int, seed uint64) (trainSet, testSet []Structure) {
	return dataset.Split(structs, nTrain, rng.New(seed))
}

// TrainPotential fits a neural network potential on the training set at
// the standard cutoff.
func TrainPotential(trainSet []Structure, opt TrainOptions) (*Potential, error) {
	return train.Fit(trainSet, feature.Standard(CutoffStandard), opt)
}

// DefaultTrainOptions returns a configuration that converges on the
// synthetic dataset in minutes of CPU time.
func DefaultTrainOptions() TrainOptions { return train.DefaultOptions() }

// EvaluatePotential computes parity metrics on a test set.
func EvaluatePotential(p *Potential, testSet []Structure) TrainMetrics {
	return train.Evaluate(p, testSet)
}

// DiffusionTracker accumulates unwrapped vacancy displacements and
// transport observables (MSD, diffusivity, hop-correlation factor) from
// serial-run events.
type DiffusionTracker = diffusion.Tracker

// NewDiffusionTracker prepares tracking for a simulation's box and
// vacancy population. Feed it from a Run observer:
//
//	tr := tensorkmc.NewDiffusionTracker(sim)
//	sim.Run(duration, tr.Record)
//	d := tr.Coefficient(tensorkmc.LatticeConstantFe) // Å²/s
func NewDiffusionTracker(sim *Simulation) *DiffusionTracker {
	_, _, vac := sim.Box().Count()
	return diffusion.NewTracker(sim.Box(), vac)
}
