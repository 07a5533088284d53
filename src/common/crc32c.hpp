// CRC32C (Castagnoli) — the checksum used for end-to-end chunk integrity in
// the pfs layer, over the reflected polynomial 0x82F63B78. The kernel is the
// dispatched `simd::Ops::crc32c`: the SSE4.2 `crc32` instruction on the AVX2
// backend (~6 GB/s, about 3 ms per 16 MiB CPI), the byte-at-a-time table
// elsewhere (~0.3 GB/s). CRC is exact, so every backend returns the same
// value and the checksum catalog does not depend on the host.
// Known-answer: crc32c of the ASCII bytes "123456789" is 0xE3069283.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"

namespace pstap {

/// Incremental update: feed `crc32c_update(previous, ...)` successive spans.
/// Start from 0 (the pre/post inversion is applied inside).
inline std::uint32_t crc32c_update(std::uint32_t crc, const void* data,
                                   std::size_t len) {
  return simd::ops().crc32c(crc, data, len);
}

/// One-shot CRC32C of a buffer.
inline std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c_update(0, data, len);
}

}  // namespace pstap
