// Adaptive weight computation (pipeline tasks 2 and 3).
//
// For each assigned Doppler bin: estimate the sample covariance from the
// training range gates of the *previous* CPI's Doppler output (the temporal
// dependency TD in the paper's pipeline), apply diagonal loading, factor it
// by Cholesky and solve R w = s for each beam steering vector (sample-matrix
// inversion, SMI, with MVDR normalization). The easy task
// runs with channels DOF on easy bins; the hard task with 2*channels DOF on
// the clutter-ridge bins — roughly 8x the per-bin work, which is why the
// paper assigns the hard tasks more nodes.
#pragma once

#include <span>
#include <vector>

#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"

namespace pstap::stap {

/// Adaptive weights: [bin][beam][dof], bins in the order they were assigned.
class WeightSet {
 public:
  WeightSet() = default;
  WeightSet(std::size_t bins, std::size_t beams, std::size_t dof)
      : bins_(bins), beams_(beams), dof_(dof), w_(bins * beams * dof) {}

  std::size_t bins() const noexcept { return bins_; }
  std::size_t beams() const noexcept { return beams_; }
  std::size_t dof() const noexcept { return dof_; }

  std::span<cfloat> at(std::size_t bin, std::size_t beam) {
    return {w_.data() + (bin * beams_ + beam) * dof_, dof_};
  }
  std::span<const cfloat> at(std::size_t bin, std::size_t beam) const {
    return {w_.data() + (bin * beams_ + beam) * dof_, dof_};
  }

  std::span<cfloat> flat() { return w_; }
  std::span<const cfloat> flat() const { return w_; }

 private:
  std::size_t bins_ = 0, beams_ = 0, dof_ = 0;
  std::vector<cfloat> w_;
};

class WeightComputer {
 public:
  /// Compute weights for `bin_ids` (absolute bins on the M-point grid) at
  /// `dof` degrees of freedom (easy_dof() or hard_dof()).
  WeightComputer(const RadarParams& params, std::vector<std::size_t> bin_ids,
                 std::size_t dof);

  const std::vector<std::size_t>& bin_ids() const noexcept { return bin_ids_; }
  std::size_t dof() const noexcept { return dof_; }

  /// `spectra` must cover the same bins in the same order with matching
  /// dof; normally the previous CPI's DopplerOutput easy/hard array. Falls
  /// back to the loaded-identity covariance (i.e. conventional beamforming)
  /// when a bin's covariance is numerically singular.
  WeightSet compute(const BinArray& spectra) const;

  /// Conventional (steering-only) weights s / |s|^2 for every assigned
  /// (bin, beam): what the beamformers apply at CPI 0, before the first
  /// adaptive weights arrive over the temporal edge.
  WeightSet conventional() const;

  /// Steering vector for (bin, beam) at this task's DOF.
  std::vector<cfloat> steering(std::size_t bin, std::size_t beam) const;

 private:
  RadarParams params_;
  std::vector<std::size_t> bin_ids_;
  std::size_t dof_;
};

}  // namespace pstap::stap
