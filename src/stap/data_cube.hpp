// CPI data containers.
//
// DataCube   — raw radar samples [channel][pulse][range] (range contiguous).
// BinArray   — per-Doppler-bin stacked snapshots [bin][dof][range], the
//              output of Doppler filtering and input to weights/beamforming.
// BeamArray  — beamformed output [bin][beam][range].
// BinArray and BeamArray are RowArrays: views over one refcounted Buffer,
// so a pipeline node can ship slices of them without copying.
//
// The on-disk order (what the radar writes and the I/O task reads) is
// range-major [range][pulse][channel], so that the range-partitioned I/O
// nodes read contiguous byte regions — the access pattern of the paper.
// pack_file_order / unpack_file_order are the one transpose between that
// order and the cube's rows (see FileLayout for the other on-disk order).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/buffer.hpp"
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
  /// `out` must hold (r1-r0)*pulses*channels elements. A slab of several MB
  /// is packed on several cores (pstap::parallel_for), a small one inline.
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

/// A [bin][row][range] complex array (range contiguous) over one
/// refcounted pstap::Buffer — the shared shape of BinArray (rows = dof)
/// and BeamArray (rows = beams).
///
/// Storage is aligned and unpooled by default (zero-filled); the pipeline
/// hands in a pooled buffer instead and ships slice()s of it. Because those
/// slices share the bytes, storage that has been sliced and shipped is
/// never written again: a node that ships an array builds the next CPI's
/// array over fresh storage. Move-only, like the buffers it replaced;
/// sharing is always explicit, through slice().
class RowArray {
 public:
  std::size_t bins() const noexcept { return bins_; }
  std::size_t ranges() const noexcept { return ranges_; }
  std::size_t samples() const noexcept { return bins_ * rows_ * ranges_; }

  cfloat& at(std::size_t b, std::size_t row, std::size_t r) noexcept {
    return base()[(b * rows_ + row) * ranges_ + r];
  }
  const cfloat& at(std::size_t b, std::size_t row, std::size_t r) const noexcept {
    return base()[(b * rows_ + row) * ranges_ + r];
  }

  // Pointer arithmetic, not at(): an array with no storage (0 ranges) has
  // a null base(), and binding a reference through it is undefined.
  std::span<cfloat> range_series(std::size_t b, std::size_t row) noexcept {
    return {base() + (b * rows_ + row) * ranges_, ranges_};
  }
  std::span<const cfloat> range_series(std::size_t b, std::size_t row) const noexcept {
    return {base() + (b * rows_ + row) * ranges_, ranges_};
  }

  std::span<cfloat> flat() noexcept { return {base(), samples()}; }
  std::span<const cfloat> flat() const noexcept { return {base(), samples()}; }

  /// The rows of bins [lo, hi) — contiguous in this layout — as a handle
  /// sharing this array's storage: no byte is copied.
  Buffer slice(std::size_t lo, std::size_t hi) const {
    PSTAP_REQUIRE(lo <= hi && hi <= bins_, "row array slice out of range");
    const std::size_t block = rows_ * ranges_ * sizeof(cfloat);
    return data_.slice(lo * block, (hi - lo) * block);
  }

 protected:
  RowArray() = default;
  RowArray(std::size_t bins, std::size_t rows, std::size_t ranges)
      : RowArray(bins, rows, ranges,
                 Buffer::allocate(bins * rows * ranges * sizeof(cfloat))) {
    std::fill(flat().begin(), flat().end(), cfloat{});
  }
  /// Wrap `storage`, which must hold exactly bins * rows * ranges
  /// elements; its bytes are used as they are.
  RowArray(std::size_t bins, std::size_t rows, std::size_t ranges, Buffer storage)
      : bins_(bins), rows_(rows), ranges_(ranges), data_(std::move(storage)) {
    PSTAP_REQUIRE(data_.size() == samples() * sizeof(cfloat),
                  "row array storage size does not match its shape");
  }
  RowArray(RowArray&&) noexcept = default;
  RowArray& operator=(RowArray&&) noexcept = default;

  std::size_t rows() const noexcept { return rows_; }

 private:
  cfloat* base() noexcept { return reinterpret_cast<cfloat*>(data_.data()); }
  const cfloat* base() const noexcept {
    return reinterpret_cast<const cfloat*>(data_.data());
  }

  std::size_t bins_ = 0, rows_ = 0, ranges_ = 0;
  Buffer data_;
};

/// Stacked Doppler-domain snapshots: bins x dof x ranges (range contiguous).
/// For easy bins dof = channels (stagger 0 only); for hard bins dof =
/// 2*channels (both staggers stacked).
class BinArray : public RowArray {
 public:
  BinArray() = default;
  BinArray(std::size_t bins, std::size_t dof, std::size_t ranges)
      : RowArray(bins, dof, ranges) {}
  BinArray(std::size_t bins, std::size_t dof, std::size_t ranges, Buffer storage)
      : RowArray(bins, dof, ranges, std::move(storage)) {}

  std::size_t dof() const noexcept { return rows(); }

  /// Snapshot vector (dof elements) at (bin, range) — strided by ranges.
  void snapshot(std::size_t b, std::size_t r, std::span<cfloat> out) const {
    PSTAP_REQUIRE(out.size() == dof(), "snapshot buffer size mismatch");
    for (std::size_t d = 0; d < dof(); ++d) out[d] = at(b, d, r);
  }
};

/// Beamformed output: bins x beams x ranges (range contiguous).
class BeamArray : public RowArray {
 public:
  BeamArray() = default;
  BeamArray(std::size_t bins, std::size_t beams, std::size_t ranges)
      : RowArray(bins, beams, ranges) {}
  BeamArray(std::size_t bins, std::size_t beams, std::size_t ranges, Buffer storage)
      : RowArray(bins, beams, ranges, std::move(storage)) {}

  std::size_t beams() const noexcept { return rows(); }
};

}  // namespace pstap::stap
