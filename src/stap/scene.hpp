// Synthetic radar scene generation.
//
// The paper's input is real phased-array data, written by the radar into
// four files round-robin. We cannot ship that data, so SceneGenerator
// synthesizes CPI cubes with the same structure: point targets carrying
// the transmitted pulse-compression code, a clutter ridge whose Doppler is
// coupled to angle (occupying the "hard" bins around DC), and white
// receiver noise. Ground truth is retained so tests can check that the
// full pipeline detects what was injected.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"

namespace pstap::stap {

/// A point target injected into the scene.
struct Target {
  std::size_t range = 0;       ///< range gate of the leading code chip at CPI 0
  double doppler_bin = 0.0;    ///< Doppler in bin units on the M-point grid
  double angle = 0.0;          ///< azimuth off boresight, radians
  double snr_db = 20.0;        ///< per-sample SNR before any processing gain
  double range_rate = 0.0;     ///< range-gate drift per CPI (a moving target)
};

struct SceneConfig {
  std::vector<Target> targets;
  double noise_power = 1.0;
  double cnr_db = 30.0;          ///< clutter-to-noise ratio (total ridge power)
  std::size_t clutter_patches = 64;  ///< discrete patches along the ridge; 0 disables
};

class SceneGenerator {
 public:
  /// `seed` fixes the noise/clutter realization; the same (seed, cpi index)
  /// always produces the same cube.
  SceneGenerator(RadarParams params, SceneConfig config, std::uint64_t seed = 1);

  const RadarParams& params() const noexcept { return params_; }
  const SceneConfig& config() const noexcept { return config_; }

  /// The transmitted range code (length pc_code_length, unit modulus) that
  /// targets carry and the pulse compressor matches against.
  const std::vector<cfloat>& range_code() const noexcept { return code_; }

  /// Generate the CPI cube for time step `cpi`.
  DataCube generate(std::uint64_t cpi) const;

  /// Generate the CPI cube for time step `cpi` into `cube`, which must have
  /// this scene's shape; every element is written, so its old bytes do not
  /// matter and one cube can be reused across CPIs. The noise draws, the
  /// clutter returns and the per-channel clutter GEMMs run in `chunks`
  /// chunks (0: one per kMinChunkSamples cube samples, at most one per
  /// core); the bytes are the same for every chunk count.
  void generate_into(std::uint64_t cpi, DataCube& cube, std::size_t chunks = 0) const;

  /// Cube samples per synthesis chunk: a cube smaller than two of these is
  /// synthesized on the calling thread alone, with no thread started
  /// (test_small and the kernel benches' cubes are).
  static constexpr std::size_t kMinChunkSamples = std::size_t{1} << 15;

  /// Range gate of target `t` at CPI `cpi` (drifted by range_rate and
  /// clamped so the code fits in the range window).
  std::size_t target_range_at(std::size_t t, std::uint64_t cpi) const;

 private:
  void add_clutter(DataCube& cube, Rng& rng, std::size_t chunks) const;
  void add_targets(DataCube& cube, std::uint64_t cpi) const;

  RadarParams params_;
  SceneConfig config_;
  std::uint64_t seed_;
  std::vector<cfloat> code_;
  std::vector<double> patch_angles_;  // fixed clutter geometry (radians)
};

/// Write into `out` the draws rng.complex_normal(power) would give element
/// by element, and leave `rng` where that serial loop leaves it. Element i
/// takes raw draws 2i and 2i + 1, so each of `chunks` (>= 1) chunks jumps
/// ahead to its first element with Rng::discard and the bytes do not
/// depend on the split. The one exception is a u1 draw of zero, which
/// normal() redraws, shifting every later element: a chunk that meets one
/// abandons the split and the whole fill reruns as the serial loop.
/// Requires `rng` to hold no pending normal() spare (a fresh stream holds
/// none).
void fill_complex_normal(std::span<cfloat> out, Rng& rng, double power,
                         std::size_t chunks);

/// The transmitted pulse-compression code: a fixed pseudo-random binary
/// phase code of length `length` (deterministic — shared by the scene
/// generator and the pulse compressor).
std::vector<cfloat> make_range_code(std::size_t length);

}  // namespace pstap::stap
