#include "stap/data_cube.hpp"

#include <algorithm>

namespace pstap::stap {

namespace {

// Range gates per transpose block. One block of file order is contiguous
// (64 x pulses x channels samples, 1 MB at the paper geometry); per pulse
// its 64 x channels panel stays in L1 while every channel row gets one
// 64-gate run.
constexpr std::size_t kTransposeRanges = 64;

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
  for_each_file_order(channels_, pulses_, ranges_, r0, r1,
                      [&](std::size_t i, std::size_t f) { out[f] = data_[i]; });
}

void DataCube::unpack_file_order(std::size_t r0, std::size_t r1,
                                 std::span<const cfloat> in) {
  PSTAP_REQUIRE(in.size() == slab_samples(r0, r1), "slab buffer size mismatch");
  for_each_file_order(channels_, pulses_, ranges_, r0, r1,
                      [&](std::size_t i, std::size_t f) { data_[i] = in[f]; });
}

}  // namespace pstap::stap
