#include "arch/neuron.h"

namespace compass::arch {

bool NeuronParams::valid() const noexcept {
  for (std::int16_t w : weights) {
    if (w < kWeightMin || w > kWeightMax) return false;
  }
  if (leak < kWeightMin || leak > kWeightMax) return false;
  if (threshold <= 0 || threshold > kPotentialMax) return false;
  if (reset_value < kPotentialMin || reset_value > kPotentialMax) return false;
  if (floor < kPotentialMin || floor > 0) return false;
  if (threshold_mask_bits > kMaxThresholdMaskBits) return false;
  if (reset_mode != ResetMode::kAbsolute && reset_mode != ResetMode::kLinear &&
      reset_mode != ResetMode::kNone) {
    return false;
  }
  return true;
}

bool neuron_step(const NeuronParams& p, std::int32_t& potential,
                 std::int32_t synaptic_input, util::CorePrng& prng) {
  std::int32_t v = potential + synaptic_input;

  // Leak. The stochastic variant applies one unit of leak with probability
  // |leak|/256, preserving the mean while dithering the timing — the PRNG is
  // consumed whenever the flag is set so that draw order never depends on
  // membrane state.
  if (p.flags & kStochasticLeak) {
    if (p.leak != 0) {
      const std::uint8_t mag = static_cast<std::uint8_t>(
          p.leak > 0 ? (p.leak > 255 ? 255 : p.leak)
                     : (p.leak < -255 ? 255 : -p.leak));
      if (prng.bernoulli_8(mag)) v -= (p.leak > 0 ? 1 : -1);
    }
  } else {
    v -= p.leak;
  }

  // Threshold, optionally jittered upward by a masked uniform draw.
  std::int32_t threshold = p.threshold;
  if (p.flags & kStochasticThreshold) {
    const std::uint32_t mask = (1u << p.threshold_mask_bits) - 1u;
    threshold += static_cast<std::int32_t>(prng.uniform_masked(mask));
  }

  bool fired = false;
  if (v >= threshold) {
    fired = true;
    switch (p.reset_mode) {
      case ResetMode::kAbsolute: v = p.reset_value; break;
      case ResetMode::kLinear: v -= p.threshold; break;
      case ResetMode::kNone: break;
    }
  }

  // Negative saturation (hardware clamps rather than wrapping).
  if (v < p.floor) v = p.floor;
  if (v > kPotentialMax) v = kPotentialMax;

  potential = v;
  return fired;
}

}  // namespace compass::arch
