// Adaptive beamforming (pipeline tasks 4 and 5).
//
// Applies the per-bin adaptive weights to the Doppler-domain snapshots:
// y(bin, beam, range) = w(bin, beam)^H x(bin, :, range). The weights come
// from the *previous* CPI (temporal dependency) so beamforming never waits
// on the current CPI's weight computation — the property that keeps weight
// tasks out of the paper's latency equation.
#pragma once

#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"
#include "stap/weights.hpp"

namespace pstap::stap {

class Beamformer {
 public:
  explicit Beamformer(const RadarParams& params) : params_(params) {
    params_.validate();
  }

  /// `spectra`: [bins][dof][ranges]; `weights`: matching bins/dof.
  /// Returns [bins][beams][ranges].
  BeamArray apply(const BinArray& spectra, const WeightSet& weights) const;

  /// apply() into range gates [r0, r0 + spectra.ranges()) of `out`, which
  /// must already be [bins][beams][>= r0 + spectra.ranges()]. Every element
  /// of those columns is written and no other, so `out` may be fresh
  /// uninitialized storage (the pipeline's pooled payloads) that several
  /// calls fill window by window. The vector kernels step 4 gates at a time
  /// from the window's first gate, so when r0 is a multiple of 4 (a
  /// pipeline Doppler window starts on a 32-gate block) the bytes match
  /// the full-width call's. apply() passes r0 = 0.
  void apply_into(const BinArray& spectra, const WeightSet& weights, BeamArray& out,
                  std::size_t r0) const;

 private:
  RadarParams params_;
};

}  // namespace pstap::stap
