#include "stap/doppler.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hpp"

namespace pstap::stap {

DopplerFilter::DopplerFilter(const RadarParams& params)
    : params_(params), plan_(params.doppler_bins()) {
  params_.validate();
  const std::size_t m = params_.doppler_bins();
  window_.resize(m);
  if (m == 1) {
    window_[0] = 1.0f;
  } else {
    // Hann window, normalized to unit average gain so easy/hard amplitude
    // comparisons across bins stay calibrated. The Hann samples over
    // [0, m) with denominator m-1 sum to exactly (m-1)/2, so the
    // normalization factor is 2m/(m-1) — one pass, no re-normalize.
    const double step = 2.0 * std::numbers::pi / static_cast<double>(m - 1);
    const double norm = 2.0 * static_cast<double>(m) / static_cast<double>(m - 1);
    for (std::size_t p = 0; p < m; ++p) {
      const double w = 0.5 - 0.5 * std::cos(step * static_cast<double>(p));
      window_[p] = static_cast<float>(norm * w);
    }
  }

  const auto easy_ids = params_.easy_bins();
  const auto hard_ids = params_.hard_bins();
  easy_slot_.assign(m, SIZE_MAX);
  hard_slot_.assign(m, SIZE_MAX);
  for (std::size_t i = 0; i < easy_ids.size(); ++i) easy_slot_[easy_ids[i]] = i;
  for (std::size_t i = 0; i < hard_ids.size(); ++i) hard_slot_[hard_ids[i]] = i;
}

DopplerOutput DopplerFilter::process(const DataCube& cube) const {
  DopplerOutput out;
  process_into(cube, out);
  return out;
}

namespace {

// Lane budget: R adjacent range gates per block, both staggers as lanes
// (lane l < R is stagger 0 at gate r0+l, lane R+l is stagger 1), so one
// SoA transform covers 2R series. Doppler FFTs are short (m = pulses - 1),
// so the block is kept much wider than kBatchLanes: the SoA planes stay
// small (m * 2R floats) while every SIMD call runs long enough to amortize
// its dispatch. 2R = 64 lanes -> 8 AVX2 iterations per butterfly row.
constexpr std::size_t kRangesPerBlock = 32;

}  // namespace

/// Where one range block's pulse rows live: the row of (channel c, pulse p)
/// starts at base + c * channel_stride + p * pulse_stride and holds the
/// block's gates contiguously.
struct DopplerFilter::BlockRows {
  const cfloat* base;
  std::size_t channel_stride, pulse_stride;
};

/// Sizes `out` for `ranges` gates, then filters each range block from the
/// rows rows_of(r0, width) points at.
template <typename RowsOf>
void DopplerFilter::filter_blocks(std::size_t ranges, DopplerOutput& out,
                                  RowsOf rows_of) const {
  out.easy_bin_ids = params_.easy_bins();
  out.hard_bin_ids = params_.hard_bins();
  if (out.easy.bins() != out.easy_bin_ids.size() ||
      out.easy.dof() != params_.easy_dof() || out.easy.ranges() != ranges) {
    out.easy = BinArray(out.easy_bin_ids.size(), params_.easy_dof(), ranges);
  }
  if (out.hard.bins() != out.hard_bin_ids.size() ||
      out.hard.dof() != params_.hard_dof() || out.hard.ranges() != ranges) {
    out.hard = BinArray(out.hard_bin_ids.size(), params_.hard_dof(), ranges);
  }
  const std::size_t m = params_.doppler_bins();
  re_.resize(m * 2 * kRangesPerBlock);
  im_.resize(m * 2 * kRangesPerBlock);
  const bool stream =
      out.easy.flat().size_bytes() + out.hard.flat().size_bytes() >= kStreamMinBytes;
  for (std::size_t r0 = 0; r0 < ranges; r0 += kRangesPerBlock) {
    const std::size_t width = std::min(kRangesPerBlock, ranges - r0);
    filter_block(rows_of(r0, width), r0, width, stream, out);
  }
  // Streaming stores are weakly ordered: order them before `out` is
  // handed on.
  simd::store_fence();
}

/// The Doppler kernel for gates [r0, r0 + R) of every channel.
void DopplerFilter::filter_block(const BlockRows& rows, std::size_t r0, std::size_t R,
                                 bool stream, DopplerOutput& out) const {
  const std::size_t m = params_.doppler_bins();
  const std::size_t ch = params_.channels;
  const std::size_t L = 2 * R;
  const simd::Ops& vec = simd::ops();
  for (std::size_t c = 0; c < ch; ++c) {
    // Windowed gather: pulse rows are range-contiguous, so each plane row
    // is two SIMD deinterleave+window passes (one per stagger) over
    // contiguous complex data.
    const cfloat* chan = rows.base + c * rows.channel_stride;
    for (std::size_t p = 0; p < m; ++p) {
      const float w = window_[p];
      const float* row0 = reinterpret_cast<const float*>(chan + p * rows.pulse_stride);
      const float* row1 =
          reinterpret_cast<const float*>(chan + (p + 1) * rows.pulse_stride);
      float* rk = re_.data() + p * L;
      float* ik = im_.data() + p * L;
      vec.deinterleave_scale(rk, ik, row0, w, R);
      vec.deinterleave_scale(rk + R, ik + R, row1, w, R);
    }

    plan_.transform_soa(std::span<float>(re_.data(), m * L),
                        std::span<float>(im_.data(), m * L), L,
                        fft::Direction::kForward, scratch_);

    // Route bins: hard bins take both staggers, easy bins stagger 0 only.
    // Each route is one SIMD re-interleave of a plane row into the output.
    // A large output is written once here and read next by other ranks
    // after it has left the cache, so its stores stream: reading its lines
    // in first would only waste bandwidth.
    for (std::size_t b = 0; b < m; ++b) {
      const float* rk = re_.data() + b * L;
      const float* ik = im_.data() + b * L;
      if (hard_slot_[b] != SIZE_MAX) {
        const std::size_t i = hard_slot_[b];
        float* d0 = reinterpret_cast<float*>(&out.hard.at(i, c, r0));
        float* d1 = reinterpret_cast<float*>(&out.hard.at(i, ch + c, r0));
        vec.interleave(d0, rk, ik, R, stream);
        vec.interleave(d1, rk + R, ik + R, R, stream);
      } else {
        float* d0 = reinterpret_cast<float*>(&out.easy.at(easy_slot_[b], c, r0));
        vec.interleave(d0, rk, ik, R, stream);
      }
    }
  }
}

void DopplerFilter::process_into(const DataCube& cube, DopplerOutput& out) const {
  PSTAP_REQUIRE(cube.channels() == params_.channels && cube.pulses() == params_.pulses,
                "cube shape does not match radar parameters");
  const std::size_t nr = cube.ranges();
  filter_blocks(nr, out, [&](std::size_t r0, std::size_t) {
    return BlockRows{&cube.at(0, 0, r0), params_.pulses * nr, nr};
  });
}

void DopplerFilter::process_into(std::span<const cfloat> raw, std::size_t ranges,
                                 FileLayout layout, DopplerOutput& out) const {
  const std::size_t ch = params_.channels;
  const std::size_t np = params_.pulses;
  PSTAP_REQUIRE(raw.size() == ranges * np * ch,
                "raw slab size does not match radar parameters");
  if (layout == FileLayout::kPulseMajor) {
    // Rows arrive back to back in (pulse * channels + channel) order.
    filter_blocks(ranges, out, [&](std::size_t r0, std::size_t) {
      return BlockRows{raw.data() + r0, ranges, ch * ranges};
    });
    return;
  }
  // Range-major: the block's gates are one contiguous run of the slab;
  // transpose it into the tile's rows, which keep a fixed stride of
  // kRangesPerBlock gates even for a ragged last block.
  if (tile_.ranges() == 0) tile_ = DataCube(ch, np, kRangesPerBlock);
  filter_blocks(ranges, out, [&](std::size_t r0, std::size_t width) {
    tile_.unpack_file_order(0, width, raw.subspan(r0 * np * ch, width * np * ch));
    return BlockRows{&tile_.at(0, 0, 0), np * kRangesPerBlock, kRangesPerBlock};
  });
}

}  // namespace pstap::stap
