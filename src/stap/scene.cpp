#include "stap/scene.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hpp"
#include "stap/steering.hpp"

namespace pstap::stap {

std::vector<cfloat> make_range_code(std::size_t length) {
  PSTAP_REQUIRE(length >= 1, "code length must be >= 1");
  // Fixed seed: the code is part of the waveform design, not the scene.
  Rng rng(0xC0DEC0DEULL);
  std::vector<cfloat> code(length);
  for (auto& chip : code) {
    chip = rng.uniform() < 0.5 ? cfloat{1.0f, 0.0f} : cfloat{-1.0f, 0.0f};
  }
  return code;
}

SceneGenerator::SceneGenerator(RadarParams params, SceneConfig config,
                               std::uint64_t seed)
    : params_(std::move(params)), config_(std::move(config)), seed_(seed),
      code_(make_range_code(params_.pc_code_length)) {
  params_.validate();
  // Fixed clutter geometry: azimuths drawn once per scene (terrain does not
  // move between CPIs).
  Rng geometry_rng(seed_ ^ 0xC1077E12ULL);
  patch_angles_.reserve(config_.clutter_patches);
  for (std::size_t l = 0; l < config_.clutter_patches; ++l) {
    patch_angles_.push_back(
        geometry_rng.uniform(-std::numbers::pi / 2, std::numbers::pi / 2));
  }
  for (const Target& t : config_.targets) {
    PSTAP_REQUIRE(t.range + params_.pc_code_length <= params_.ranges,
                  "target code extent exceeds range window");
    PSTAP_REQUIRE(t.doppler_bin >= 0.0 &&
                      t.doppler_bin < static_cast<double>(params_.doppler_bins()),
                  "target Doppler bin outside the M-point grid");
  }
}

void SceneGenerator::add_noise(DataCube& cube, Rng& rng) const {
  if (config_.noise_power <= 0.0) return;
  for (cfloat& v : cube.flat()) v += rng.complex_normal(config_.noise_power);
}

void SceneGenerator::add_clutter(DataCube& cube, Rng& rng) const {
  if (config_.clutter_patches == 0 || config_.cnr_db <= -300.0) return;
  const std::size_t m = params_.doppler_bins();
  const std::size_t patches = config_.clutter_patches;
  const std::size_t pulses = params_.pulses;
  const std::size_t ranges = cube.ranges();
  // Reference for CNR is the noise floor; in deliberately noise-free test
  // scenes fall back to unit power so the clutter does not vanish.
  const double ref = config_.noise_power > 0.0 ? config_.noise_power : 1.0;
  const double total_power = ref * from_db(config_.cnr_db);
  const double patch_power = total_power / static_cast<double>(patches);

  // Discrete clutter ridge with angle-Doppler coupling. The patch
  // *geometry* (azimuths, fixed in the constructor) persists across CPIs —
  // it is terrain — so weights trained on the previous CPI null the right
  // directions; the complex returns fluctuate per CPI and per range ring,
  // which gives the training covariance its full clutter-subspace rank.
  //
  // The ridge is a rank-`patches` update of the cube: per channel c,
  //   cube(c, p, r) += sum_l factor(l, c, p) * amp(l, r),
  // factor = spatial(l, c) * temporal(l, p). It runs as one FMA-free GEMM
  // per channel (m = pulses, k = patches, n = ranges) whose every element
  // adds its terms in ascending l onto the noise, with the complex MAC tree
  // y + (fr*ar - fi*ai), y + (fr*ai + fi*ar) of std::complex<float> — the
  // order and the trees of a patch-outer loop over the cube, so the bytes
  // are those of that loop on every backend. The returns are drawn patch by
  // patch in that same order, and the phasors come from the same double
  // trig rounded to float, each computed once per (patch, channel) and
  // (patch, pulse) instead of once per (patch, channel, pulse).
  std::vector<cfloat> amp(patches * ranges);
  for (cfloat& a : amp) a = rng.complex_normal(patch_power);
  const double max_doppler_bins = static_cast<double>(params_.hard_halfwidth);
  std::vector<cfloat> spatial(patches * params_.channels);
  std::vector<cfloat> temporal(patches * pulses);
  for (std::size_t l = 0; l < patches; ++l) {
    const double phi = patch_angles_[l];
    const double doppler_bins = max_doppler_bins * std::sin(phi);
    const double fd = doppler_bins / static_cast<double>(m);  // cycles per PRI
    const double spatial_k =
        2.0 * std::numbers::pi * params_.element_spacing * std::sin(phi);
    for (std::size_t c = 0; c < params_.channels; ++c) {
      const double sp = spatial_k * static_cast<double>(c);
      spatial[l * params_.channels + c] = {static_cast<float>(std::cos(sp)),
                                           static_cast<float>(std::sin(sp))};
    }
    for (std::size_t p = 0; p < pulses; ++p) {
      const double tp = 2.0 * std::numbers::pi * fd * static_cast<double>(p);
      temporal[l * pulses + p] = {static_cast<float>(std::cos(tp)),
                                  static_cast<float>(std::sin(tp))};
    }
  }
  // Factor panel of one channel, planar pulses x patches as the kernel's A.
  std::vector<float> fre(pulses * patches), fim(pulses * patches);
  const simd::Ops& o = simd::ops();
  for (std::size_t c = 0; c < params_.channels; ++c) {
    for (std::size_t l = 0; l < patches; ++l) {
      for (std::size_t p = 0; p < pulses; ++p) {
        const cfloat factor =
            spatial[l * params_.channels + c] * temporal[l * pulses + p];
        fre[p * patches + l] = factor.real();
        fim[p * patches + l] = factor.imag();
      }
    }
    o.cgemm_planar_exact(reinterpret_cast<float*>(&cube.at(c, 0, 0)), ranges,
                         fre.data(), fim.data(), pulses, patches,
                         reinterpret_cast<const float*>(amp.data()), ranges,
                         ranges);
  }
}

std::size_t SceneGenerator::target_range_at(std::size_t t, std::uint64_t cpi) const {
  PSTAP_REQUIRE(t < config_.targets.size(), "target index out of range");
  const Target& tgt = config_.targets[t];
  const double drifted = static_cast<double>(tgt.range) +
                         tgt.range_rate * static_cast<double>(cpi);
  const double max_range =
      static_cast<double>(params_.ranges - params_.pc_code_length);
  return static_cast<std::size_t>(std::clamp(drifted, 0.0, max_range));
}

void SceneGenerator::add_targets(DataCube& cube, std::uint64_t cpi) const {
  const std::size_t m = params_.doppler_bins();
  const double ref = config_.noise_power > 0.0 ? config_.noise_power : 1.0;
  for (std::size_t ti = 0; ti < config_.targets.size(); ++ti) {
    const Target& t = config_.targets[ti];
    const std::size_t range = target_range_at(ti, cpi);
    const double amp = std::sqrt(ref * from_db(t.snr_db));
    const double fd = t.doppler_bin / static_cast<double>(m);
    const double spatial_k =
        2.0 * std::numbers::pi * params_.element_spacing * std::sin(t.angle);
    for (std::size_t c = 0; c < params_.channels; ++c) {
      const double sp = spatial_k * static_cast<double>(c);
      const cfloat spatial{static_cast<float>(std::cos(sp)),
                           static_cast<float>(std::sin(sp))};
      for (std::size_t p = 0; p < params_.pulses; ++p) {
        const double tp = 2.0 * std::numbers::pi * fd * static_cast<double>(p);
        const cfloat factor = static_cast<float>(amp) * spatial *
                              cfloat{static_cast<float>(std::cos(tp)),
                                     static_cast<float>(std::sin(tp))};
        // The target echo carries the transmitted code along range.
        for (std::size_t k = 0; k < code_.size(); ++k) {
          cube.at(c, p, range + k) += factor * code_[k];
        }
      }
    }
  }
}

DataCube SceneGenerator::generate(std::uint64_t cpi) const {
  DataCube cube(params_.channels, params_.pulses, params_.ranges);
  // Independent deterministic stream per CPI.
  Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (cpi + 1)));
  add_noise(cube, rng);
  add_clutter(cube, rng);
  add_targets(cube, cpi);
  return cube;
}

}  // namespace pstap::stap
