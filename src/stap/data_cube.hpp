// CPI data containers.
//
// DataCube   — raw radar samples [channel][pulse][range] (range contiguous).
// BinArray   — per-Doppler-bin stacked snapshots [bin][dof][range], the
//              output of Doppler filtering and input to weights/beamforming.
// BeamArray  — beamformed output [bin][beam][range].
//
// The on-disk order (what the radar writes and the I/O task reads) is
// range-major [range][pulse][channel], so that the range-partitioned I/O
// nodes read contiguous byte regions — the access pattern of the paper.
// pack_file_order / unpack_file_order are the one transpose between that
// order and the cube's rows (see FileLayout for the other on-disk order).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace pstap::stap {

/// Element order of a CPI file or of a raw slab read from one.
enum class FileLayout {
  kRangeMajor,  ///< [range][pulse][channel] — slab reads are contiguous
  kPulseMajor,  ///< [pulse][channel][range] — slab reads are strided
};

/// Raw CPI samples: channels x pulses x ranges, range contiguous.
class DataCube {
 public:
  DataCube() = default;
  DataCube(std::size_t channels, std::size_t pulses, std::size_t ranges)
      : channels_(channels), pulses_(pulses), ranges_(ranges),
        data_(channels * pulses * ranges) {
    data_.fill_zero();
  }

  std::size_t channels() const noexcept { return channels_; }
  std::size_t pulses() const noexcept { return pulses_; }
  std::size_t ranges() const noexcept { return ranges_; }
  std::size_t samples() const noexcept { return data_.size(); }
  std::size_t bytes() const noexcept { return data_.size() * sizeof(cfloat); }

  cfloat& at(std::size_t c, std::size_t p, std::size_t r) noexcept {
    return data_[(c * pulses_ + p) * ranges_ + r];
  }
  const cfloat& at(std::size_t c, std::size_t p, std::size_t r) const noexcept {
    return data_[(c * pulses_ + p) * ranges_ + r];
  }

  /// Contiguous range series for (channel, pulse).
  std::span<cfloat> range_series(std::size_t c, std::size_t p) noexcept {
    return {&at(c, p, 0), ranges_};
  }
  std::span<const cfloat> range_series(std::size_t c, std::size_t p) const noexcept {
    return {&at(c, p, 0), ranges_};
  }

  std::span<cfloat> flat() noexcept { return data_.span(); }
  std::span<const cfloat> flat() const noexcept { return data_.span(); }

  /// Pack range gates [r0, r1) into the on-disk order [range][pulse][channel].
  /// `out` must hold (r1-r0)*pulses*channels elements.
  void pack_file_order(std::size_t r0, std::size_t r1, std::span<cfloat> out) const;

  /// Unpack an on-disk slab of range gates [r0, r1) into this cube. Gates
  /// outside [r0, r1) are left as they are, so a cube wider than the slab
  /// can serve as a fixed-stride tile (the Doppler filter's range blocks).
  void unpack_file_order(std::size_t r0, std::size_t r1, std::span<const cfloat> in);

  /// Elements in a range slab of the on-disk representation.
  std::size_t slab_samples(std::size_t r0, std::size_t r1) const {
    PSTAP_REQUIRE(r0 <= r1 && r1 <= ranges_, "invalid range slab");
    return (r1 - r0) * pulses_ * channels_;
  }

 private:
  std::size_t channels_ = 0, pulses_ = 0, ranges_ = 0;
  AlignedBuffer<cfloat> data_;
};

/// Stacked Doppler-domain snapshots: bins x dof x ranges (range contiguous).
/// For easy bins dof = channels (stagger 0 only); for hard bins dof =
/// 2*channels (both staggers stacked).
class BinArray {
 public:
  BinArray() = default;
  BinArray(std::size_t bins, std::size_t dof, std::size_t ranges)
      : bins_(bins), dof_(dof), ranges_(ranges), data_(bins * dof * ranges) {
    data_.fill_zero();
  }

  std::size_t bins() const noexcept { return bins_; }
  std::size_t dof() const noexcept { return dof_; }
  std::size_t ranges() const noexcept { return ranges_; }
  std::size_t samples() const noexcept { return data_.size(); }

  cfloat& at(std::size_t b, std::size_t d, std::size_t r) noexcept {
    return data_[(b * dof_ + d) * ranges_ + r];
  }
  const cfloat& at(std::size_t b, std::size_t d, std::size_t r) const noexcept {
    return data_[(b * dof_ + d) * ranges_ + r];
  }

  std::span<cfloat> range_series(std::size_t b, std::size_t d) noexcept {
    return {&at(b, d, 0), ranges_};
  }
  std::span<const cfloat> range_series(std::size_t b, std::size_t d) const noexcept {
    return {&at(b, d, 0), ranges_};
  }

  /// Snapshot vector (dof elements) at (bin, range) — strided by ranges.
  void snapshot(std::size_t b, std::size_t r, std::span<cfloat> out) const {
    PSTAP_REQUIRE(out.size() == dof_, "snapshot buffer size mismatch");
    for (std::size_t d = 0; d < dof_; ++d) out[d] = at(b, d, r);
  }

  std::span<cfloat> flat() noexcept { return data_.span(); }
  std::span<const cfloat> flat() const noexcept { return data_.span(); }

 private:
  std::size_t bins_ = 0, dof_ = 0, ranges_ = 0;
  AlignedBuffer<cfloat> data_;
};

/// Beamformed output: bins x beams x ranges (range contiguous).
class BeamArray {
 public:
  BeamArray() = default;
  BeamArray(std::size_t bins, std::size_t beams, std::size_t ranges)
      : bins_(bins), beams_(beams), ranges_(ranges), data_(bins * beams * ranges) {
    data_.fill_zero();
  }

  std::size_t bins() const noexcept { return bins_; }
  std::size_t beams() const noexcept { return beams_; }
  std::size_t ranges() const noexcept { return ranges_; }
  std::size_t samples() const noexcept { return data_.size(); }

  cfloat& at(std::size_t b, std::size_t beam, std::size_t r) noexcept {
    return data_[(b * beams_ + beam) * ranges_ + r];
  }
  const cfloat& at(std::size_t b, std::size_t beam, std::size_t r) const noexcept {
    return data_[(b * beams_ + beam) * ranges_ + r];
  }

  std::span<cfloat> range_series(std::size_t b, std::size_t beam) noexcept {
    return {&at(b, beam, 0), ranges_};
  }
  std::span<const cfloat> range_series(std::size_t b, std::size_t beam) const noexcept {
    return {&at(b, beam, 0), ranges_};
  }

  std::span<cfloat> flat() noexcept { return data_.span(); }
  std::span<const cfloat> flat() const noexcept { return data_.span(); }

 private:
  std::size_t bins_ = 0, beams_ = 0, ranges_ = 0;
  AlignedBuffer<cfloat> data_;
};

}  // namespace pstap::stap
