// Message envelope and typed payload (de)serialization for the mp runtime.
//
// The original STAP code used Intel NX / IBM MPL message passing; pstap's
// `mp` library provides the same programming model with threads as ranks.
// Payloads are byte buffers; the typed helpers below pack/unpack spans of
// trivially copyable types, which covers every message the pipeline sends
// (complex samples, weight matrices, detection reports, control words).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace pstap::mp {

/// Refcounted payload handle (see common/buffer.hpp): pooled buffers give
/// the zero-copy/zero-allocation fast path; adopted vectors carry the
/// packed spans of allreduce_sum.
using Buffer = pstap::Buffer;
using BufferPool = pstap::BufferPool;

/// Wire envelope: routing metadata plus a shared payload handle. Moving an
/// envelope moves the handle — the bytes themselves never move or copy
/// between send and receive.
struct Envelope {
  std::uint64_t context = 0;  ///< communicator context id
  int source = 0;             ///< sender rank within that communicator
  int tag = 0;                ///< user tag (>= 0); negative is internal
  Buffer payload;
};

/// Serialize a span of trivially copyable values into bytes.
template <typename T>
std::vector<std::byte> pack(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> bytes(values.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

/// Deserialize bytes into `out`. The byte count must match exactly.
template <typename T>
void unpack(std::span<const std::byte> bytes, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  PSTAP_REQUIRE(bytes.size() == out.size_bytes(),
                "message size does not match receive buffer");
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
}

/// Deserialize bytes into a freshly sized vector<T>.
template <typename T>
std::vector<T> unpack_vector(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  PSTAP_REQUIRE(bytes.size() % sizeof(T) == 0,
                "message size is not a multiple of the element size");
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

}  // namespace pstap::mp
