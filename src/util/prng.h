// Deterministic pseudo-random number generators.
//
// TrueNorth cores contain hardware PRNGs with configurable seeds (paper
// section II: "we have adopted pseudo-random number generators with
// configurable seeds"), used for stochastic synapses, stochastic leak, and
// stochastic thresholds. Compass must be bit-exact with the hardware, so the
// generators here are fixed algorithms with fully specified sequences — no
// std::mt19937, no implementation-defined behaviour.
//
// Two generators are provided:
//   * SplitMix64 — a seeding/stream-splitting generator. Used to derive
//     independent per-core seeds from one global model seed.
//   * CorePrng   — the per-core generator (xorshift64*, cheap and high
//     quality). All stochastic neuron behaviour draws from this in a fixed
//     order, which makes simulation results independent of partitioning.
//
// xorshift64's state transition is linear over GF(2), so the state n steps
// ahead is a fixed 64x64 bit matrix times the state. detail::jump_ahead
// applies that matrix from tables built at compile time, and the block-lane
// draw generators below use it to produce a core-tick's draws as 8
// independent chains that together reproduce the serial stream exactly.
#pragma once

#include <cstdint>

namespace compass::util {

/// Seeding generator: maps a 64-bit state to a well-mixed stream.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (the SplitMix64 finalizer).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive the seed for stream `stream` (e.g. a core id) from a global seed.
/// Distinct (seed, stream) pairs give decorrelated sequences.
std::uint64_t derive_seed(std::uint64_t global_seed, std::uint64_t stream) noexcept;

/// Per-core deterministic generator (xorshift64* with SplitMix64 seeding).
///
/// The draw helpers match the widths the TrueNorth neuron model consumes:
/// 8-bit Bernoulli comparisons for stochastic synapse/leak, and a masked
/// uniform for stochastic thresholds.
class CorePrng {
 public:
  CorePrng() noexcept : state_(0x853C49E6748FEA9BULL) {}
  explicit CorePrng(std::uint64_t seed) noexcept { reseed(seed); }

  /// Reset the generator. A zero seed is remapped (xorshift state must be
  /// non-zero) through SplitMix64, so every seed value is legal.
  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 mix(seed);
    state_ = mix.next();
    if (state_ == 0) state_ = 0x9E3779B97F4A7C15ULL;
  }

  /// The output scrambler: each output is the new state times this.
  static constexpr std::uint64_t kMultiplier = 0x2545F4914F6CDD1DULL;

  /// One state transition (xorshift64), a linear map over GF(2)^64.
  static constexpr std::uint64_t advance(std::uint64_t x) noexcept {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x;
  }

  std::uint64_t next_u64() noexcept {
    state_ = advance(state_);
    return state_ * kMultiplier;
  }

  std::uint32_t next_u32() noexcept {
    return static_cast<std::uint32_t>(next_u64() >> 32);
  }

  /// One byte of randomness (top bits of the stream).
  std::uint8_t next_u8() noexcept {
    return static_cast<std::uint8_t>(next_u64() >> 56);
  }

  /// Bernoulli trial with probability p8/256. p8 == 0 never fires; 256 would
  /// always fire but does not fit in the byte, matching the hardware's
  /// 8-bit probability fields where p < 1 always.
  bool bernoulli_8(std::uint8_t p8) noexcept { return next_u8() < p8; }

  /// Uniform draw in [0, mask] where mask = 2^k - 1 (hardware masks the raw
  /// stream; no rejection sampling).
  std::uint32_t uniform_masked(std::uint32_t mask) noexcept {
    return next_u32() & mask;
  }

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift reduction
  /// (biased by < 2^-32, irrelevant for model construction; neuron dynamics
  /// only ever use the masked/bernoulli draws above).
  std::uint32_t uniform_below(std::uint32_t n) noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(next_u32()) * n) >> 32);
  }

  /// Uniform double in [0, 1).
  double uniform_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  std::uint64_t state() const noexcept { return state_; }

  /// Restore an exact saved state (checkpoint/restart); `state` must come
  /// from a prior state() call and is therefore non-zero.
  void set_state(std::uint64_t state) noexcept {
    state_ = state != 0 ? state : 0x9E3779B97F4A7C15ULL;
  }

  friend bool operator==(const CorePrng&, const CorePrng&) = default;

 private:
  std::uint64_t state_;
};

namespace detail {

/// The state `steps` next_u64() calls after `state`, for `steps` 32, 64,
/// 128 or 256: sixteen lookups in a 2 KiB table of that power of the
/// transition matrix, one per nibble of the state (the jump-ahead of
/// Haramoto et al., 2008).
std::uint64_t jump_ahead(std::uint64_t state, unsigned steps) noexcept;

/// Block-lane draw generation, for the parameter-uniform neuron sweep
/// (arch/kernels.h). Writes to out[i] what the (i+1)-th next_u32() from
/// `state` returns, for i in [0, n), and leaves `state` where n next_u64()
/// calls would; `n` is 256 or 512. Lane k of 8 starts k x n/8 steps ahead
/// and fills out[k n/8, (k+1) n/8); lane 7's last state is the end state.
///
/// The lanes one after another in scalar code: the scheme on every CPU, and
/// the oracle the wide body is tested against (the portable neuron sweep
/// draws serially instead; this order is no faster without wide vectors).
void lane_draws_portable(std::uint64_t& state, std::uint32_t* out,
                         unsigned n) noexcept;

#if defined(__x86_64__)
/// All eight lanes in one AVX-512 register: the lane starts by three
/// masked vector jumps (by n/8, n/4 and n/2 steps), the draws by an 8x8
/// transpose into `out`. Call it only when the CPU reports avx512f and
/// avx512dq.
void lane_draws_avx512(std::uint64_t& state, std::uint32_t* out,
                       unsigned n) noexcept;
#endif

}  // namespace detail

}  // namespace compass::util
