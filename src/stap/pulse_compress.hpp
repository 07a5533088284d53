// Pulse compression (pipeline task 6).
//
// Matched-filters each beamformed range series against the transmitted
// code via FFT-based circular correlation: Y = IFFT(FFT(y) .* conj(C)).
// A target whose code starts at range gate r produces a compressed peak at
// gate r with processing gain equal to the code length.
#pragma once

#include <vector>

#include "fft/fft.hpp"
#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"

namespace pstap::stap {

class PulseCompressor {
 public:
  /// `ranges` fixes the FFT length; the code comes from make_range_code
  /// (shared with SceneGenerator).
  explicit PulseCompressor(const RadarParams& params);

  /// In-place compression along the range dimension of every (bin, beam).
  /// Batched: all range series run through one fused FFT·spectrum·IFFT
  /// convolution pass. Keeps per-call scratch — share one PulseCompressor
  /// per thread.
  void compress(BeamArray& beams) const;

  const std::vector<cfloat>& code() const noexcept { return code_; }

 private:
  RadarParams params_;
  fft::FftPlan plan_;                 // length == ranges
  std::vector<cfloat> code_;          // length pc_code_length
  std::vector<cfloat> code_spectrum_; // conj(FFT(zero-padded code))
  mutable fft::BatchScratch scratch_; // compress() workspace
};

}  // namespace pstap::stap
