#include "stap/pulse_compress.hpp"

#include "stap/scene.hpp"

namespace pstap::stap {

PulseCompressor::PulseCompressor(const RadarParams& params)
    : params_(params), plan_(params.ranges), code_(make_range_code(params.pc_code_length)) {
  params_.validate();
  // Matched-filter spectrum: conj(FFT(code zero-padded to the range window)),
  // normalized by the code length so a full code echo compresses to its
  // original per-sample amplitude times 1 (unit processing gain in
  // amplitude; SNR gain shows up through noise averaging).
  std::vector<cfloat> padded(params_.ranges, cfloat{});
  std::copy(code_.begin(), code_.end(), padded.begin());
  plan_.transform(padded, fft::Direction::kForward);
  code_spectrum_.resize(params_.ranges);
  const float norm = 1.0f / static_cast<float>(code_.size());
  for (std::size_t i = 0; i < padded.size(); ++i) {
    code_spectrum_[i] = std::conj(padded[i]) * norm;
  }
}

void PulseCompressor::compress(BeamArray& beams) const {
  PSTAP_REQUIRE(beams.ranges() == params_.ranges,
                "beam array range extent must equal the range window");
  // The (bin, beam) range series are laid out back to back, so the whole
  // array is one batched matched-filter convolution with the spectral
  // multiply fused between the SoA transforms. The radix stages and the
  // spectral multiply both run on the runtime-dispatched SIMD backend
  // (common/simd.hpp) inside convolve_batch.
  plan_.convolve_batch(beams.flat(), beams.bins() * beams.beams(),
                       code_spectrum_, scratch_);
}

}  // namespace pstap::stap
