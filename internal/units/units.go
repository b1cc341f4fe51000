// Package units collects the physical constants and unit conventions used
// throughout TensorKMC. Energies are in electron-volts (eV), distances in
// angstroms (Å), times in seconds, and temperatures in kelvin, matching the
// conventions of the TensorKMC paper (SC '21).
package units

import "math"

const (
	// KB is Boltzmann's constant in eV/K.
	KB = 8.617333262e-5

	// AttemptFrequency is the attempt frequency Γ₀ of Eq. (1) in the
	// paper, in 1/s.
	AttemptFrequency = 6e12

	// LatticeConstantFe is the bcc Fe lattice constant a in Å used by
	// the paper's validation and application runs.
	LatticeConstantFe = 2.87

	// CutoffStandard is the standard interaction cutoff radius in Å
	// (Sec. 4.1.1); CutoffShort is the reduced cutoff compared against
	// in Fig. 11.
	CutoffStandard = 6.5
	CutoffShort    = 5.8

	// EA0Fe and EA0Cu are the reference activation energies E_a⁰ of
	// Eq. (2) for a migrating Fe or Cu atom, in eV.
	EA0Fe = 0.65
	EA0Cu = 0.56

	// ReactorTemperature (573 K thermal aging) is the temperature of the
	// paper's runs.
	ReactorTemperature = 573.0
)

// Beta returns 1/(k_B·T) in 1/eV for the given temperature in kelvin.
func Beta(temperatureK float64) float64 {
	return 1.0 / (KB * temperatureK)
}

// ArrheniusRate returns Γ₀·exp(−Ea/(k_B·T)) per Eq. (1). Negative
// activation energies are clamped to zero so a downhill hop saturates at
// the attempt frequency rather than exceeding it.
func ArrheniusRate(activationEV, temperatureK float64) float64 {
	if activationEV < 0 {
		activationEV = 0
	}
	return AttemptFrequency * math.Exp(-activationEV*Beta(temperatureK))
}

// MigrationEnergy returns E_a of Eq. (2): the species reference barrier
// plus half the total energy change of the hop.
func MigrationEnergy(ea0, deltaE float64) float64 {
	return ea0 + float64(0.5*deltaE)
}
