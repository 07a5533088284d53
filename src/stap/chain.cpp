#include "stap/chain.hpp"

namespace pstap::stap {

StapChain::StapChain(const RadarParams& params)
    : params_(params),
      doppler_(params_),
      wc_easy_(params_, params_.easy_bins(), params_.easy_dof()),
      wc_hard_(params_, params_.hard_bins(), params_.hard_dof()),
      beamformer_(params_),
      compressor_(params_),
      cfar_(params_),
      conventional_easy_(wc_easy_.conventional()),
      conventional_hard_(wc_hard_.conventional()) {}

std::vector<Detection> StapChain::push(const DataCube& cube) {
  const DopplerOutput out = doppler_.process(cube);

  const WeightSet& w_easy = weights_easy_ ? *weights_easy_ : conventional_easy_;
  const WeightSet& w_hard = weights_hard_ ? *weights_hard_ : conventional_hard_;

  BeamArray y_easy = beamformer_.apply(out.easy, w_easy);
  BeamArray y_hard = beamformer_.apply(out.hard, w_hard);
  compressor_.compress(y_easy);
  compressor_.compress(y_hard);

  std::vector<Detection> detections = cfar_.detect(y_easy, out.easy_bin_ids);
  const auto hard_hits = cfar_.detect(y_hard, out.hard_bin_ids);
  detections.insert(detections.end(), hard_hits.begin(), hard_hits.end());
  for (Detection& d : detections) d.cpi = cpi_;

  // Train the weights this CPI's spectra provide for the next push —
  // the pipeline's temporal dependency.
  weights_easy_ = wc_easy_.compute(out.easy);
  weights_hard_ = wc_hard_.compute(out.hard);
  ++cpi_;
  return detections;
}

void StapChain::reset() {
  weights_easy_.reset();
  weights_hard_.reset();
  cpi_ = 0;
}

}  // namespace pstap::stap
