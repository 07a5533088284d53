#include "stap/doppler.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/parallel.hpp"
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

/// Where one range block's pulse rows live: the row of (channel c, pulse p)
/// starts at base + c * channel_stride + p * pulse_stride and holds the
/// block's gates contiguously.
struct DopplerFilter::BlockRows {
  const cfloat* base;
  std::size_t channel_stride, pulse_stride;
};

/// Sizes `out` for `ranges` gates, then filters each range block from the
/// rows rows_of(ws, r0, width) points at, in chunks of whole blocks. A
/// range-major source (`tiled`) gets a block tile in every workspace.
template <typename RowsOf>
void DopplerFilter::filter_blocks(std::size_t ranges, std::size_t chunks, bool tiled,
                                  DopplerOutput& out, RowsOf rows_of) const {
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
  const std::size_t blocks = (ranges + kRangesPerBlock - 1) / kRangesPerBlock;
  if (chunks == 0) {
    chunks =
        parallel_chunks(ranges * params_.pulses * params_.channels, kMinChunkSamples);
  }
  chunks = std::clamp<std::size_t>(chunks, 1, std::max<std::size_t>(blocks, 1));

  // Every chunk's workspace is sized here, on the calling thread.
  const std::size_t m = params_.doppler_bins();
  if (ws_.size() < chunks) ws_.resize(chunks);
  for (std::size_t i = 0; i < chunks; ++i) {
    Workspace& ws = ws_[i];
    ws.re.resize(m * 2 * kRangesPerBlock);
    ws.im.resize(m * 2 * kRangesPerBlock);
    plan_.reserve_soa(ws.scratch, 2 * kRangesPerBlock);
    if (tiled && ws.tile.ranges() == 0) {
      ws.tile = DataCube(params_.channels, params_.pulses, kRangesPerBlock);
    }
  }
  const bool stream =
      out.easy.flat().size_bytes() + out.hard.flat().size_bytes() >= kStreamMinBytes;
  parallel_for(chunks, [&](std::size_t i) {
    Workspace& ws = ws_[i];
    const auto [b0, b1] = chunk_range(blocks, chunks, i);
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t r0 = b * kRangesPerBlock;
      const std::size_t width = std::min(kRangesPerBlock, ranges - r0);
      filter_block(rows_of(ws, r0, width), r0, width, stream, ws, out);
    }
    // Streaming stores are weakly ordered, per thread: order this chunk's
    // before `out` is handed on.
    simd::store_fence();
  });
}

/// The Doppler kernel for gates [r0, r0 + R) of every channel.
void DopplerFilter::filter_block(const BlockRows& rows, std::size_t r0, std::size_t R,
                                 bool stream, Workspace& ws, DopplerOutput& out) const {
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
      float* rk = ws.re.data() + p * L;
      float* ik = ws.im.data() + p * L;
      vec.deinterleave_scale(rk, ik, row0, w, R);
      vec.deinterleave_scale(rk + R, ik + R, row1, w, R);
    }

    plan_.transform_soa(std::span<float>(ws.re.data(), m * L),
                        std::span<float>(ws.im.data(), m * L), L,
                        fft::Direction::kForward, ws.scratch);

    // Route bins: hard bins take both staggers, easy bins stagger 0 only.
    // Each route is one SIMD re-interleave of a plane row into the output.
    // A large output is written once here and read next by other ranks
    // after it has left the cache, so its stores stream: reading its lines
    // in first would only waste bandwidth.
    for (std::size_t b = 0; b < m; ++b) {
      const float* rk = ws.re.data() + b * L;
      const float* ik = ws.im.data() + b * L;
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

void DopplerFilter::process_into(const DataCube& cube, DopplerOutput& out,
                                 std::size_t chunks) const {
  PSTAP_REQUIRE(cube.channels() == params_.channels && cube.pulses() == params_.pulses,
                "cube shape does not match radar parameters");
  const std::size_t nr = cube.ranges();
  filter_blocks(nr, chunks, /*tiled=*/false, out,
                [&](Workspace&, std::size_t r0, std::size_t) {
                  return BlockRows{&cube.at(0, 0, r0), params_.pulses * nr, nr};
                });
}

void DopplerFilter::process_into(std::span<const cfloat> raw, std::size_t ranges,
                                 FileLayout layout, DopplerOutput& out,
                                 std::size_t chunks) const {
  const std::size_t ch = params_.channels;
  const std::size_t np = params_.pulses;
  PSTAP_REQUIRE(raw.size() == ranges * np * ch,
                "raw slab size does not match radar parameters");
  if (layout == FileLayout::kPulseMajor) {
    // Rows arrive back to back in (pulse * channels + channel) order.
    filter_blocks(ranges, chunks, /*tiled=*/false, out,
                  [&](Workspace&, std::size_t r0, std::size_t) {
                    return BlockRows{raw.data() + r0, ranges, ch * ranges};
                  });
    return;
  }
  // Range-major: the block's gates are one contiguous run of the slab;
  // transpose it into the chunk's tile, whose rows keep a fixed stride of
  // kRangesPerBlock gates even for a ragged last block.
  filter_blocks(ranges, chunks, /*tiled=*/true, out,
                [&](Workspace& ws, std::size_t r0, std::size_t width) {
                  ws.tile.unpack_file_order(0, width,
                                            raw.subspan(r0 * np * ch, width * np * ch));
                  return BlockRows{&ws.tile.at(0, 0, 0), np * kRangesPerBlock,
                                   kRangesPerBlock};
                });
}

}  // namespace pstap::stap
