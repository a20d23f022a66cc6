// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used by the resilience layer to guard every checkpoint section: any
// single-bit (or single-byte) error in a stored payload is guaranteed to be
// detected, which is what lets the loader reject corrupt or truncated files
// with a typed error instead of deserialising garbage.
#pragma once

#include <cstddef>
#include <cstdint>

namespace compass::util {

/// CRC of `len` bytes at `data`, continuing from `crc` (pass 0 to start).
/// Chaining calls over consecutive chunks equals one call over the whole
/// buffer. Runs the fastest body the CPU supports, chosen once.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t crc = 0) noexcept;

namespace detail {

/// The two bodies behind crc32(), exposed so tests and microbenchmarks can
/// run each one directly. Both compute exactly crc32()'s values.
using Crc32Body = std::uint32_t (*)(const void*, std::size_t,
                                    std::uint32_t) noexcept;

/// Slice-by-8 tables: portable, and the fallback on every CPU.
std::uint32_t crc32_portable(const void* data, std::size_t len,
                             std::uint32_t crc) noexcept;

#if defined(__x86_64__)
/// PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009). Call it only
/// when the CPU reports pclmul and sse4.1.
std::uint32_t crc32_clmul(const void* data, std::size_t len,
                          std::uint32_t crc) noexcept;
#endif

/// The body crc32() dispatches to on this CPU.
Crc32Body crc32_body() noexcept;

}  // namespace detail

}  // namespace compass::util
