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

  /// apply() into `out`, which must already be [bins][beams][ranges]. Every
  /// element is written, so `out` may be fresh uninitialized storage (the
  /// pipeline's pooled payloads).
  void apply_into(const BinArray& spectra, const WeightSet& weights,
                  BeamArray& out) const;

 private:
  RadarParams params_;
};

}  // namespace pstap::stap
