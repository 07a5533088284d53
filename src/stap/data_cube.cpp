#include "stap/data_cube.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace pstap::stap {

namespace {

// Range gates per transpose block. One block of file order is contiguous
// (64 x pulses x channels samples, 1 MB at the paper geometry); per pulse
// its 64 x channels panel stays in L1 while every channel row gets one
// 64-gate run.
constexpr std::size_t kTransposeRanges = 64;

// Samples of a pack below which a split adds a chunk (2 MB): a whole
// paper-geometry cube (16.8 MB) packs on every core, a slab of a small cube
// on the calling thread alone.
constexpr std::size_t kPackChunkSamples = std::size_t{1} << 18;

/// The one transpose between file order [range][pulse][channel] and the
/// cube's [channel][pulse][range] rows, over gates [r0, r1) of a cube with
/// `ranges` gates per row. Calls copy(cube_index, file_index) for every
/// sample, blocked so that the cube-side index runs along a row in the
/// innermost loop: an unblocked walk in file order steps one whole channel
/// plane (1 MB at the paper geometry) per element and misses the TLB on
/// almost every cube access.
template <typename Copy>
void for_each_file_order(std::size_t channels, std::size_t pulses, std::size_t ranges,
                         std::size_t r0, std::size_t r1, Copy copy) {
  const std::size_t per_range = pulses * channels;
  for (std::size_t b0 = r0; b0 < r1; b0 += kTransposeRanges) {
    const std::size_t b1 = std::min(b0 + kTransposeRanges, r1);
    const std::size_t file0 = (b0 - r0) * per_range;
    for (std::size_t p = 0; p < pulses; ++p) {
      for (std::size_t c = 0; c < channels; ++c) {
        const std::size_t row = (c * pulses + p) * ranges;
        std::size_t f = file0 + p * channels + c;
        for (std::size_t r = b0; r < b1; ++r, f += per_range) copy(row + r, f);
      }
    }
  }
}

}  // namespace

void DataCube::pack_file_order(std::size_t r0, std::size_t r1,
                               std::span<cfloat> out) const {
  PSTAP_REQUIRE(out.size() == slab_samples(r0, r1), "slab buffer size mismatch");
  // Chunks of whole transpose blocks: each writes its own contiguous run of
  // `out`, and the blocking is the serial pack's.
  const std::size_t blocks = (r1 - r0 + kTransposeRanges - 1) / kTransposeRanges;
  const std::size_t chunks = std::clamp<std::size_t>(
      parallel_chunks(out.size(), kPackChunkSamples), 1, std::max<std::size_t>(blocks, 1));
  const std::size_t per_range = pulses_ * channels_;
  parallel_for(chunks, [&](std::size_t i) {
    const auto [b0, b1] = chunk_range(blocks, chunks, i);
    const std::size_t g0 = r0 + b0 * kTransposeRanges;
    const std::size_t g1 = std::min(r1, r0 + b1 * kTransposeRanges);
    cfloat* dst = out.data() + (g0 - r0) * per_range;
    for_each_file_order(channels_, pulses_, ranges_, g0, g1,
                        [&](std::size_t c, std::size_t f) { dst[f] = data_[c]; });
  });
}

void DataCube::unpack_file_order(std::size_t r0, std::size_t r1,
                                 std::span<const cfloat> in) {
  PSTAP_REQUIRE(in.size() == slab_samples(r0, r1), "slab buffer size mismatch");
  for_each_file_order(channels_, pulses_, ranges_, r0, r1,
                      [&](std::size_t i, std::size_t f) { data_[i] = in[f]; });
}

}  // namespace pstap::stap
