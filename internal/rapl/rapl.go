// Package rapl emulates Intel's Running Average Power Limit (RAPL) energy
// reporting interface, which the paper uses to measure server energy (§3):
// "The models maintain counters to keep track of the cumulative energy used
// by the CPUs. For each scenario, we read the energy counter for each CPU
// before and after the experiment."
//
// The emulation reproduces the real interface's sharp edges so measurement
// code exercises the same logic as on hardware:
//
//   - energy is reported in units of 2^-16 J (the Sandy Bridge+ default
//     Energy Status Unit, MSR_RAPL_POWER_UNIT[12:8] = 16);
//   - the MSR_PKG_ENERGY_STATUS counter is 32 bits wide and wraps every
//     65,536 J (about every 30–50 minutes at the modeled server's power),
//     so long measurements must apply modular subtraction;
//   - reads are monotone non-decreasing modulo wraparound.
package rapl

import "greenenvy/internal/energy"

// DefaultEnergyUnitJoules is 2^-16 J ≈ 15.3 µJ, the default RAPL energy
// status unit on Intel server parts.
const DefaultEnergyUnitJoules = 1.0 / 65536

// counterBits is the width of the hardware energy-status counter.
const counterBits = 32

// Sensor exposes a host's energy.Meter through the RAPL package-domain
// counter (MSR_PKG_ENERGY_STATUS), which meters everything the host draws.
type Sensor struct {
	meter *energy.Meter
	unit  float64
}

// NewSensor wraps a meter with the default energy unit.
func NewSensor(m *energy.Meter) *Sensor {
	return &Sensor{meter: m, unit: DefaultEnergyUnitJoules}
}

// EnergyUnitJoules returns the joules-per-count unit, as a real driver would
// decode from MSR_RAPL_POWER_UNIT.
func (s *Sensor) EnergyUnitJoules() float64 { return s.unit }

// ReadCounter returns the current raw 32-bit package energy-status
// counter. It syncs the underlying meter first, mirroring that hardware
// counters are always current.
func (s *Sensor) ReadCounter() uint32 {
	s.meter.Sync()
	counts := uint64(s.meter.Joules() / s.unit)
	return uint32(counts & (1<<counterBits - 1))
}

// CounterDelta returns the energy in joules between two raw counter reads,
// handling a single wraparound with modular arithmetic. Measurements longer
// than one full wrap (2^32 × 2^-16 J = 65,536 J: 65.5 s at 1 kJ/s, about
// 51 min at the 21.49 W idle floor, about 30 min at the 35.82 W 10 Gb/s
// anchor) are out of scope, as on real hardware.
func (s *Sensor) CounterDelta(before, after uint32) float64 {
	delta := uint64(after-before) & (1<<counterBits - 1)
	return float64(delta) * s.unit
}

// Measurement brackets an interval with two counter reads, the way the
// paper's scripts bracket each iperf3 run.
type Measurement struct {
	sensor *Sensor
	before uint32
}

// Begin snapshots the counter.
func (s *Sensor) Begin() Measurement {
	return Measurement{sensor: s, before: s.ReadCounter()}
}

// End reads the counter again and returns the joules since Begin.
func (m Measurement) End() float64 {
	return m.sensor.CounterDelta(m.before, m.sensor.ReadCounter())
}
