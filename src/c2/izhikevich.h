// Izhikevich phenomenological neuron model — the dynamics of the C2
// cortical simulator that Compass replaced.
//
// Paper section I: "the neuron dynamics equations in Compass are amenable to
// efficient hardware implementation, whereas C2 focused on
// single-compartment phenomenological dynamic neuron models [13]" — [13]
// being Izhikevich, "Which model to use for cortical spiking neurons" (IEEE
// TNN 2004). The baseline simulator in src/c2/ uses this model:
//
//   v' = 0.04 v^2 + 5 v + 140 - u + I
//   u' = a (b v - u)
//   if v >= 30 mV: v <- c, u <- u + d
//
// integrated with two 0.5 ms Euler substeps per 1 ms tick, as in the
// original C2 publications (Ananthanarayanan & Modha, SC'07/SC'09).
#pragma once

namespace compass::c2 {

struct IzhikevichParams {
  float a = 0.02f;
  float b = 0.2f;
  float c = -65.0f;
  float d = 8.0f;

  /// Cortical regular-spiking (excitatory) cell.
  static IzhikevichParams regular_spiking() { return {0.02f, 0.2f, -65.0f, 8.0f}; }
  /// Fast-spiking (inhibitory) interneuron.
  static IzhikevichParams fast_spiking() { return {0.1f, 0.2f, -65.0f, 2.0f}; }
};

struct IzhikevichState {
  float v = -65.0f;
  float u = -13.0f;  // b * v at rest
};

/// Advance one 1 ms tick (two 0.5 ms Euler substeps) under input current
/// `current` (arbitrary units matched to the classic parameterisation).
/// Returns true if the neuron fired during this tick.
bool izhikevich_step(const IzhikevichParams& params, IzhikevichState& state,
                     float current);

}  // namespace compass::c2
