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
#pragma once

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

  /// Process into an existing output, reusing its arrays when the shapes
  /// already match (the steady-state CPI loop allocates nothing here).
  /// Instances keep per-call scratch: share one DopplerFilter per thread.
  void process_into(const DataCube& cube, DopplerOutput& out) const;

  /// The Hann window applied across each sub-aperture.
  const std::vector<float>& window() const noexcept { return window_; }

 private:
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
};

}  // namespace pstap::stap
