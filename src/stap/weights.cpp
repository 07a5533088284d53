#include "stap/weights.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cgemm.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/cmatrix.hpp"
#include "stap/steering.hpp"

namespace pstap::stap {

WeightComputer::WeightComputer(const RadarParams& params,
                               std::vector<std::size_t> bin_ids, std::size_t dof)
    : params_(params), bin_ids_(std::move(bin_ids)), dof_(dof) {
  params_.validate();
  PSTAP_REQUIRE(dof_ == params_.easy_dof() || dof_ == params_.hard_dof(),
                "dof must be easy_dof() or hard_dof()");
  for (const std::size_t b : bin_ids_) {
    PSTAP_REQUIRE(b < params_.doppler_bins(), "bin id outside the M-point grid");
  }
}

std::vector<cfloat> WeightComputer::steering(std::size_t bin, std::size_t beam) const {
  const auto spatial =
      spatial_steering(params_.channels, params_.element_spacing,
                       params_.beam_angle(beam));
  if (dof_ == params_.easy_dof()) return spatial;
  return stacked_steering(spatial, doppler_phase(bin, params_.doppler_bins()));
}

WeightSet WeightComputer::conventional() const {
  WeightSet ws(bin_ids_.size(), params_.beams, dof_);
  for (std::size_t bi = 0; bi < bin_ids_.size(); ++bi) {
    for (std::size_t beam = 0; beam < params_.beams; ++beam) {
      const auto s = steering(bin_ids_[bi], beam);
      double s2 = 0;
      for (const auto& v : s) s2 += std::norm(v);
      auto out = ws.at(bi, beam);
      for (std::size_t d = 0; d < dof_; ++d)
        out[d] = s[d] * static_cast<float>(1.0 / s2);
    }
  }
  return ws;
}

namespace {

/// MVDR normalization: w <- w / (s^H w), making the response toward the
/// steering vector exactly one. Falls back to unit scale for degenerate
/// denominators. Scale-invariant in w.
/// `sd` is the steering vector already widened to double — the widening is
/// hoisted out of the per-bin loop by the caller.
void normalize_and_store(std::span<const cdouble> sd, std::span<cdouble> w,
                         std::span<cfloat> out) {
  cdouble denom{};
  for (std::size_t d = 0; d < sd.size(); ++d) {
    denom += std::conj(sd[d]) * w[d];
  }
  const double mag = std::abs(denom);
  const cdouble scale = mag > 1e-30 ? 1.0 / denom : cdouble{1.0, 0.0};
  for (std::size_t d = 0; d < sd.size(); ++d) {
    const cdouble v = w[d] * scale;
    out[d] = {static_cast<float>(v.real()), static_cast<float>(v.imag())};
  }
}

/// Per-beam steering pieces that do not depend on the Doppler bin: the
/// spatial phase ramp and its double-precision copy. For spatial-only
/// (easy) tasks this is the whole steering vector; staggered (hard) tasks
/// still rebuild the bin-dependent temporal half per (bin, beam).
struct BeamSteering {
  std::vector<cfloat> spatial;
  std::vector<cdouble> spatial_d;
};

std::vector<BeamSteering> hoist_beam_steering(const RadarParams& params) {
  std::vector<BeamSteering> beams(params.beams);
  for (std::size_t beam = 0; beam < params.beams; ++beam) {
    beams[beam].spatial = spatial_steering(params.channels,
                                           params.element_spacing,
                                           params.beam_angle(beam));
    beams[beam].spatial_d.resize(beams[beam].spatial.size());
    for (std::size_t d = 0; d < beams[beam].spatial.size(); ++d) {
      beams[beam].spatial_d[d] = {beams[beam].spatial[d].real(),
                                  beams[beam].spatial[d].imag()};
    }
  }
  return beams;
}

/// Fill `sd` with the double-precision steering vector for (bin, beam),
/// reusing the hoisted spatial half and building only the staggered half —
/// the same single-precision product stacked_steering() computes, without
/// its allocation. `shift` is e^{i psi} for the bin (hoisted per bin so the
/// trig runs once per bin, not once per beam).
void build_steering_d(const BeamSteering& bs, bool stacked, cfloat shift,
                      std::span<cdouble> sd) {
  std::copy(bs.spatial_d.begin(), bs.spatial_d.end(), sd.begin());
  if (!stacked) return;
  const std::size_t half = bs.spatial_d.size();
  for (std::size_t d = 0; d < half; ++d) {
    const cfloat v = shift * bs.spatial[d];
    sd[half + d] = {v.real(), v.imag()};
  }
}

/// e^{i psi} exactly as stacked_steering() computes it.
cfloat stagger_shift(double psi) {
  return {static_cast<float>(std::cos(psi)), static_cast<float>(std::sin(psi))};
}

}  // namespace

WeightSet WeightComputer::compute(const BinArray& spectra) const {
  PSTAP_REQUIRE(spectra.bins() == bin_ids_.size(),
                "spectra bin count does not match assignment");
  PSTAP_REQUIRE(spectra.dof() == dof_, "spectra dof mismatch");
  const std::size_t training = std::min<std::size_t>(params_.training_ranges,
                                                     spectra.ranges());
  PSTAP_REQUIRE(training >= dof_,
                "not enough training range gates for the requested DOF");
  WeightSet weights(bin_ids_.size(), params_.beams, dof_);
  const bool stacked = dof_ != params_.easy_dof();
  const auto beams = hoist_beam_steering(params_);
  std::vector<cdouble> sd(dof_);
  std::vector<cdouble> w(dof_);

  for (std::size_t bi = 0; bi < bin_ids_.size(); ++bi) {
    // Sample covariance over the training gates: one Hermitian rank-k
    // update straight off the contiguous range series (double
    // accumulation, lower triangle only — the factor, solve, trace and
    // loading below read only the lower triangle and diagonal).
    linalg::CMatrix<double> r(dof_, dof_);
    linalg::cherk_lower(r, spectra.range_series(bi, 0).data(),
                        spectra.ranges(), training,
                        1.0 / static_cast<double>(training));
    // Diagonal loading relative to the average per-DOF power.
    double trace = 0.0;
    for (std::size_t d = 0; d < dof_; ++d) trace += r(d, d).real();
    const double load =
        params_.diagonal_loading * (trace / static_cast<double>(dof_)) + 1e-12;
    for (std::size_t d = 0; d < dof_; ++d) r(d, d) += load;

    // Factor once per bin (in place — the loaded covariance has no other
    // readers), solve per beam.
    const bool pd = linalg::cholesky_factor(r);

    const cfloat shift =
        stacked ? stagger_shift(doppler_phase(bin_ids_[bi], params_.doppler_bins()))
                : cfloat{1.0f, 0.0f};
    for (std::size_t beam = 0; beam < params_.beams; ++beam) {
      build_steering_d(beams[beam], stacked, shift, sd);
      std::copy(sd.begin(), sd.end(), w.begin());
      if (pd) {
        // w = R^-1 s; on numerically singular bins fall back to the loaded
        // identity (conventional beamforming).
        linalg::cholesky_solve_inplace(r, std::span<cdouble>(w));
      }
      normalize_and_store(sd, w, weights.at(bi, beam));
    }
  }
  return weights;
}

}  // namespace pstap::stap
