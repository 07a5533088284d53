// Doppler filter processing (pipeline task 1).
//
// Forms two PRI-staggered sub-apertures of length M = pulses-1, windows and
// Doppler-transforms each, then routes bins: easy bins keep the stagger-0
// spectrum only (channels DOF); hard bins stack both staggers (2*channels
// DOF) for the adaptive clutter cancellation downstream.
//
// The transform is batched: blocks of adjacent range gates are gathered
// (with the window fused in) into SoA planes — both staggers as lanes of
// one plane — and run through FftPlan::transform_soa, so the butterflies
// vectorize across range gates instead of dispatching one strided FFT per
// (channel, range).
//
// The gather reads each block's range-contiguous pulse rows wherever they
// already are: in a DataCube, or in place in the raw slab buffer a pfs read
// filled (pulse-major files). A range-major slab has no such rows, so each
// block of it is first transposed into a small per-instance tile; no
// whole-cube reorganisation sits between the read and the filter.
#pragma once

#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "fft/fft.hpp"
#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"

namespace pstap::stap {

/// Output of Doppler filtering for one CPI (or one range slab of it).
struct DopplerOutput {
  std::vector<std::size_t> easy_bin_ids;  ///< bins covered by `easy`
  std::vector<std::size_t> hard_bin_ids;  ///< bins covered by `hard`
  BinArray easy;  ///< [easy bin][channels][ranges]
  BinArray hard;  ///< [hard bin][2*channels][ranges]
};

class DopplerFilter {
 public:
  explicit DopplerFilter(const RadarParams& params);

  /// Doppler-process a cube (its range extent may be a slab of the full
  /// CPI when running data-parallel).
  DopplerOutput process(const DataCube& cube) const;

  /// Process into `out`. Arrays whose shapes already match are written in
  /// place, every element of them, so their prior contents do not matter:
  /// a caller may hand in fresh uninitialized (e.g. pooled) storage each
  /// call. Arrays of another shape are replaced by newly allocated ones.
  /// An output of kStreamMinBytes or more is written with streaming stores
  /// (it is not read back here) and fenced before return, so either way it
  /// may be handed straight to another thread.
  /// Instances keep per-call scratch: share one DopplerFilter per thread.
  void process_into(const DataCube& cube, DopplerOutput& out) const;

  /// Process a raw slab of `ranges` gates straight from the buffer a slab
  /// read filled, in its file order (cube_io's start_read_cpi_slab layout:
  /// range-major [range][pulse][channel], or pulse-major rows in
  /// pulse * channels + channel order). Bit-identical to process_into on
  /// the same samples as a DataCube.
  void process_into(std::span<const cfloat> raw, std::size_t ranges,
                    FileLayout layout, DopplerOutput& out) const;

  /// The Hann window applied across each sub-aperture.
  const std::vector<float>& window() const noexcept { return window_; }

  /// Outputs (easy plus hard bytes) from this size up are written with
  /// streaming stores; smaller ones stay in the cache for their reader,
  /// where plain stores are faster. The routing stores' measured crossover
  /// is near 2 MB on a host with 2 MB of L2 per core (EXPERIMENTS.md).
  static constexpr std::size_t kStreamMinBytes = std::size_t{2} << 20;

 private:
  struct BlockRows;

  template <typename RowsOf>
  void filter_blocks(std::size_t ranges, DopplerOutput& out, RowsOf rows_of) const;
  void filter_block(const BlockRows& rows, std::size_t r0, std::size_t R,
                    bool stream, DopplerOutput& out) const;

  RadarParams params_;
  fft::FftPlan plan_;            // length M transform
  std::vector<float> window_;    // length M

  // bin -> output slot maps (dense over the M-point grid; SIZE_MAX = not
  // in that set), precomputed once.
  std::vector<std::size_t> easy_slot_;
  std::vector<std::size_t> hard_slot_;

  // Per-instance transform workspace (grown once, then reused). Aligned so
  // the SIMD butterflies never split cache lines.
  mutable AlignedVector<float> re_, im_;  // SoA planes, M x 64 lanes
  mutable fft::BatchScratch scratch_;
  // One range block of a range-major raw slab, transposed into rows
  // (channels x pulses x block gates; made on first range-major use).
  mutable DataCube tile_;
};

}  // namespace pstap::stap
