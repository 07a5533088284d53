// Tests for the STAP kernels: parameter invariants, steering structure,
// cube packing, scene statistics, Doppler filtering physics (tones land in
// bins, stagger phase relation), adaptive weights (distortionless response,
// clutter suppression), pulse compression gain, CFAR behaviour, workload
// model consistency, and a full single-node processing chain that detects
// injected targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numbers>

#include "common/buffer.hpp"
#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/cmatrix.hpp"
#include "linalg_reference.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/cube_io.hpp"
#include "stap/data_cube.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/radar_params.hpp"
#include "stap/scene.hpp"
#include "stap/steering.hpp"
#include "stap/weights.hpp"
#include "stap/workload.hpp"

namespace pstap::stap {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ parameters --

TEST(RadarParamsTest, DefaultsValidate) {
  RadarParams p;
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.doppler_bins(), p.pulses - 1);
}

TEST(RadarParamsTest, BinPartitionIsExactAndDisjoint) {
  const RadarParams p = RadarParams::test_small();
  const auto easy = p.easy_bins();
  const auto hard = p.hard_bins();
  EXPECT_EQ(easy.size(), p.easy_bin_count());
  EXPECT_EQ(hard.size(), p.hard_bin_count());
  EXPECT_EQ(easy.size() + hard.size(), p.doppler_bins());
  for (const auto b : hard) EXPECT_TRUE(p.is_hard_bin(b));
  for (const auto b : easy) EXPECT_FALSE(p.is_hard_bin(b));
  // Hard bins form a cyclic interval around DC.
  EXPECT_TRUE(p.is_hard_bin(0));
  EXPECT_TRUE(p.is_hard_bin(p.hard_halfwidth));
  EXPECT_TRUE(p.is_hard_bin(p.doppler_bins() - p.hard_halfwidth));
  EXPECT_FALSE(p.is_hard_bin(p.hard_halfwidth + 1));
}

TEST(RadarParamsTest, DofScaling) {
  const RadarParams p = RadarParams::test_small();
  EXPECT_EQ(p.hard_dof(), 2 * p.easy_dof());
  EXPECT_EQ(p.easy_dof(), p.channels);
}

TEST(RadarParamsTest, ValidateCatchesBadConfigs) {
  RadarParams p = RadarParams::test_small();
  p.pulses = 1;
  EXPECT_THROW(p.validate(), PreconditionError);

  p = RadarParams::test_small();
  p.hard_halfwidth = p.doppler_bins();  // hard covers everything
  EXPECT_THROW(p.validate(), PreconditionError);

  p = RadarParams::test_small();
  p.training_ranges = p.hard_dof() - 1;
  EXPECT_THROW(p.validate(), PreconditionError);

  p = RadarParams::test_small();
  p.pc_code_length = p.ranges + 1;
  EXPECT_THROW(p.validate(), PreconditionError);

  p = RadarParams::test_small();
  p.cfar_pfa = 1.5;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(RadarParamsTest, BeamAnglesSpreadSymmetrically) {
  RadarParams p = RadarParams::test_small();
  p.beams = 5;
  EXPECT_NEAR(p.beam_angle(2), 0.0, 1e-12);
  EXPECT_NEAR(p.beam_angle(0), -p.beam_angle(4), 1e-12);
  EXPECT_THROW(p.beam_angle(5), PreconditionError);
}

// -------------------------------------------------------------- steering --

TEST(Steering, BoresightIsAllOnes) {
  const auto s = spatial_steering(8, 0.5, 0.0);
  for (const auto& v : s) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-6);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-6);
  }
}

TEST(Steering, UnitModulusAndLinearPhase) {
  const double theta = 0.3;
  const auto s = spatial_steering(8, 0.5, theta);
  const double k = 2.0 * std::numbers::pi * 0.5 * std::sin(theta);
  for (std::size_t c = 0; c < s.size(); ++c) {
    EXPECT_NEAR(std::abs(s[c]), 1.0, 1e-6);
    EXPECT_NEAR(std::arg(s[c] * std::polar(1.0f, static_cast<float>(-k * c))), 0.0,
                1e-4);
  }
}

TEST(Steering, StackedAppliesDopplerShift) {
  const auto s = spatial_steering(4, 0.5, 0.2);
  const double psi = 1.1;
  const auto st = stacked_steering(s, psi);
  ASSERT_EQ(st.size(), 8u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(std::abs(st[c] - s[c]), 0.0, 1e-6);
    const cfloat expected = std::polar(1.0f, static_cast<float>(psi)) * s[c];
    EXPECT_NEAR(std::abs(st[4 + c] - expected), 0.0, 1e-5);
  }
}

TEST(Steering, DopplerPhaseGrid) {
  EXPECT_NEAR(doppler_phase(0, 16), 0.0, 1e-12);
  EXPECT_NEAR(doppler_phase(4, 16), std::numbers::pi / 2, 1e-12);
  EXPECT_THROW(doppler_phase(16, 16), PreconditionError);
}

// ------------------------------------------------------------- data cube --

TEST(DataCubeTest, IndexingIsRangeContiguous) {
  DataCube cube(2, 3, 4);
  cube.at(1, 2, 3) = {7.0f, -1.0f};
  EXPECT_EQ(cube.range_series(1, 2)[3], (cfloat{7.0f, -1.0f}));
  EXPECT_EQ(cube.samples(), 24u);
}

TEST(RowArrayTest, SliceIsAContiguousBinBlockSharingStorage) {
  BinArray bins(4, 3, 5);
  for (std::size_t b = 0; b < 4; ++b)
    for (std::size_t d = 0; d < 3; ++d)
      for (std::size_t r = 0; r < 5; ++r) bins.at(b, d, r) = cfloat(float(b), float(d * 5 + r));

  const Buffer block = bins.slice(1, 3);
  ASSERT_EQ(block.size(), 2 * 3 * 5 * sizeof(cfloat));
  EXPECT_EQ(reinterpret_cast<const cfloat*>(block.data()), &bins.at(1, 0, 0))
      << "a slice views the array's storage, never a copy";
  // A receiver wraps the slice as its own array over bins [1, 3).
  const BinArray mine(2, 3, 5, block);
  for (std::size_t b = 0; b < 2; ++b)
    for (std::size_t d = 0; d < 3; ++d)
      for (std::size_t r = 0; r < 5; ++r)
        EXPECT_EQ(mine.at(b, d, r), bins.at(b + 1, d, r));

  EXPECT_THROW(bins.slice(2, 5), PreconditionError);
  EXPECT_THROW(BinArray(2, 3, 4, block), PreconditionError);  // wrong shape
}

TEST(RowArrayTest, EmptyWindowRowsAreEmpty) {
  // A Doppler node with more nodes than range blocks owns an empty window;
  // asking its arrays for a row must give an empty span, not a reference
  // through their null storage.
  const BinArray bins(3, 4, 0);
  BeamArray beams(2, 2, 0);
  EXPECT_TRUE(bins.flat().empty());
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t d = 0; d < 4; ++d) EXPECT_TRUE(bins.range_series(b, d).empty());
  for (std::size_t b = 0; b < 2; ++b)
    for (std::size_t m = 0; m < 2; ++m) EXPECT_TRUE(beams.range_series(b, m).empty());
}

TEST(DataCubeTest, FileOrderRoundTrip) {
  DataCube cube(3, 4, 5);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t p = 0; p < 4; ++p)
      for (std::size_t r = 0; r < 5; ++r)
        cube.at(c, p, r) = {float(c * 100 + p * 10 + r), 0.0f};

  std::vector<cfloat> raw(cube.slab_samples(0, 5));
  cube.pack_file_order(0, 5, raw);
  // File order is [range][pulse][channel]: element 0 is (c0,p0,r0),
  // element 1 is (c1,p0,r0).
  EXPECT_EQ(raw[0], (cfloat{0.0f, 0.0f}));
  EXPECT_EQ(raw[1], (cfloat{100.0f, 0.0f}));
  EXPECT_EQ(raw[3], (cfloat{10.0f, 0.0f}));  // (c0,p1,r0)

  DataCube back(3, 4, 5);
  back.unpack_file_order(0, 5, raw);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t p = 0; p < 4; ++p)
      for (std::size_t r = 0; r < 5; ++r)
        EXPECT_EQ(back.at(c, p, r), cube.at(c, p, r));

  // Ragged slabs: a partial transpose block (3x5x37, gates [5, 37)) and
  // several blocks with a ragged tail (2x3x150, gates [7, 141)). Every
  // element sits at its file-order index, and unpacking leaves the gates
  // outside the slab alone.
  struct Shape {
    std::size_t channels, pulses, ranges, r0, r1;
  };
  for (const Shape s : {Shape{3, 5, 37, 5, 37}, Shape{2, 3, 150, 7, 141}}) {
    DataCube src(s.channels, s.pulses, s.ranges);
    for (std::size_t i = 0; i < src.flat().size(); ++i)
      src.flat()[i] = {float(i), -float(i)};
    std::vector<cfloat> slab(src.slab_samples(s.r0, s.r1));
    src.pack_file_order(s.r0, s.r1, slab);
    DataCube dst(s.channels, s.pulses, s.ranges);
    dst.unpack_file_order(s.r0, s.r1, slab);
    for (std::size_t c = 0; c < s.channels; ++c)
      for (std::size_t p = 0; p < s.pulses; ++p)
        for (std::size_t r = 0; r < s.ranges; ++r) {
          const bool inside = r >= s.r0 && r < s.r1;
          if (inside) {
            ASSERT_EQ(slab[((r - s.r0) * s.pulses + p) * s.channels + c],
                      src.at(c, p, r))
                << s.ranges << " gates, (c,p,r) = " << c << "," << p << "," << r;
          }
          ASSERT_EQ(dst.at(c, p, r), inside ? src.at(c, p, r) : cfloat{})
              << s.ranges << " gates, (c,p,r) = " << c << "," << p << "," << r;
        }
  }
}

TEST(DataCubeTest, SlabPackingMatchesSubrange) {
  DataCube cube(2, 3, 8);
  for (std::size_t i = 0; i < cube.flat().size(); ++i)
    cube.flat()[i] = {float(i), 0.0f};
  std::vector<cfloat> full(cube.slab_samples(0, 8)), slab(cube.slab_samples(2, 5));
  cube.pack_file_order(0, 8, full);
  cube.pack_file_order(2, 5, slab);
  const std::size_t per_range = 2 * 3;
  for (std::size_t i = 0; i < slab.size(); ++i) {
    EXPECT_EQ(slab[i], full[2 * per_range + i]);
  }

  // Ragged: 3x5x37 with slab [5, 37), and a multi-block 3x5x150 with slab
  // [5, 137) whose window straddles the transpose blocks of the full pack.
  for (const std::size_t ranges : {37u, 150u}) {
    const std::size_t r0 = 5, r1 = ranges == 37 ? 37 : 137;
    DataCube big(3, 5, ranges);
    for (std::size_t i = 0; i < big.flat().size(); ++i)
      big.flat()[i] = {float(i), 1.0f};
    std::vector<cfloat> big_full(big.slab_samples(0, ranges));
    std::vector<cfloat> big_slab(big.slab_samples(r0, r1));
    big.pack_file_order(0, ranges, big_full);
    big.pack_file_order(r0, r1, big_slab);
    const std::size_t big_per_range = 3 * 5;
    for (std::size_t i = 0; i < big_slab.size(); ++i) {
      ASSERT_EQ(big_slab[i], big_full[r0 * big_per_range + i]) << ranges << " gates";
    }
  }
}

TEST(DataCubeTest, PaperSizedPackMatchesElementwise) {
  // 16.8 MB packs in chunks of whole transpose blocks on a multi-core
  // host; every element still lands at its file-order index, for the
  // whole cube and for a slab whose ends are not block aligned.
  const RadarParams p;
  DataCube cube(p.channels, p.pulses, p.ranges);
  for (std::size_t i = 0; i < cube.flat().size(); ++i)
    cube.flat()[i] = {float(i), -float(i % 977)};
  for (const auto& [r0, r1] : {std::pair<std::size_t, std::size_t>{0, p.ranges},
                              std::pair<std::size_t, std::size_t>{37, 1000}}) {
    std::vector<cfloat> out(cube.slab_samples(r0, r1));
    cube.pack_file_order(r0, r1, out);
    for (std::size_t r = r0; r < r1; ++r)
      for (std::size_t pp = 0; pp < p.pulses; ++pp)
        for (std::size_t c = 0; c < p.channels; ++c)
          ASSERT_EQ(out[((r - r0) * p.pulses + pp) * p.channels + c], cube.at(c, pp, r))
              << "slab [" << r0 << ", " << r1 << "), (c,p,r) = " << c << "," << pp
              << "," << r;
  }
}

TEST(DataCubeTest, RejectsBadSlab) {
  DataCube cube(2, 3, 4);
  std::vector<cfloat> raw(6);
  EXPECT_THROW(cube.pack_file_order(3, 2, raw), PreconditionError);
  EXPECT_THROW(cube.pack_file_order(0, 5, raw), PreconditionError);
  EXPECT_THROW(cube.pack_file_order(0, 2, raw), PreconditionError);  // size
}

// ----------------------------------------------------------------- scene --

// Restores the auto-detected SIMD backend even if a test fails mid-way.
struct SimdBackendGuard {
  ~SimdBackendGuard() { simd::force_backend(simd::detect_best()); }
};

std::vector<simd::Backend> simd_backends() {
  std::vector<simd::Backend> out{simd::Backend::kScalar};
  const simd::Backend best = simd::detect_best();
  if (static_cast<int>(best) >= static_cast<int>(simd::Backend::kSse2)) {
    out.push_back(simd::Backend::kSse2);
  }
  if (static_cast<int>(best) >= static_cast<int>(simd::Backend::kAvx2)) {
    out.push_back(simd::Backend::kAvx2);
  }
  return out;
}

TEST(Scene, DeterministicPerSeedAndCpi) {
  const RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.targets.push_back({10, 8.0, 0.1, 15.0});
  SceneGenerator gen_a(p, cfg, 5), gen_b(p, cfg, 5), gen_c(p, cfg, 6);
  const DataCube a = gen_a.generate(3);
  const DataCube b = gen_b.generate(3);
  const DataCube c = gen_c.generate(3);
  const DataCube a4 = gen_a.generate(4);
  EXPECT_TRUE(std::equal(a.flat().begin(), a.flat().end(), b.flat().begin()));
  EXPECT_FALSE(std::equal(a.flat().begin(), a.flat().end(), c.flat().begin()));
  EXPECT_FALSE(std::equal(a.flat().begin(), a.flat().end(), a4.flat().begin()));
}

TEST(Scene, NoiseOnlyPowerMatchesConfig) {
  RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.clutter_patches = 0;
  cfg.noise_power = 2.0;
  SceneGenerator gen(p, cfg, 1);
  const DataCube cube = gen.generate(0);
  double power = 0;
  for (const auto& v : cube.flat()) power += std::norm(v);
  power /= static_cast<double>(cube.samples());
  EXPECT_NEAR(power, 2.0, 0.1);
}

TEST(Scene, TargetEnergyConfinedToCodeExtent) {
  RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.clutter_patches = 0;
  cfg.noise_power = 0.0;  // target only
  cfg.targets.push_back({20, 4.0, 0.0, 20.0});
  SceneGenerator gen(p, cfg, 1);
  const DataCube cube = gen.generate(0);
  for (std::size_t r = 0; r < p.ranges; ++r) {
    const double mag = std::abs(cube.at(0, 0, r));
    if (r >= 20 && r < 20 + p.pc_code_length) {
      EXPECT_GT(mag, 1.0) << "range " << r;
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-5) << "range " << r;
    }
  }
}

TEST(Scene, RejectsTargetOutsideRangeWindow) {
  const RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.targets.push_back({p.ranges - 2, 4.0, 0.0, 20.0});  // code would overflow
  EXPECT_THROW(SceneGenerator(p, cfg, 1), PreconditionError);
}

TEST(Scene, ClutterConcentratesInHardBins) {
  RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.noise_power = 1e-6;  // essentially clutter only
  cfg.cnr_db = 60.0;
  SceneGenerator gen(p, cfg, 2);
  const DataCube cube = gen.generate(0);
  DopplerFilter filt(p);
  const DopplerOutput out = filt.process(cube);
  double hard_power = 0, easy_power = 0;
  for (const auto& v : out.hard.flat()) hard_power += std::norm(v);
  for (const auto& v : out.easy.flat()) easy_power += std::norm(v);
  // Normalize by sample counts before comparing densities.
  hard_power /= static_cast<double>(out.hard.samples());
  easy_power /= static_cast<double>(out.easy.samples());
  EXPECT_GT(hard_power, 20.0 * easy_power);
}

TEST(Scene, BytesPinnedOnEveryBackend) {
  // Scenes are the input of every detection-equality oracle, so their bytes
  // are pinned: the CRC32C of cubes 0..4 at test_small and at the paper
  // geometry, recorded from the patch-outer clutter loop that preceded the
  // GEMM kernel, must come out of every backend.
  struct Case {
    RadarParams params;
    std::array<std::uint32_t, 5> crc;
  };
  const Case cases[] = {
      {RadarParams::test_small(),
       {0x62eb4273u, 0xf2d7482eu, 0x3eb2e2efu, 0xc518d787u, 0x8cee8264u}},
      {RadarParams{},
       {0x6c05d842u, 0x5a7658f5u, 0x349202c6u, 0x7fecc196u, 0x361b5deau}},
  };
  SimdBackendGuard guard;
  for (simd::Backend b : simd_backends()) {
    simd::force_backend(b);
    for (const Case& c : cases) {
      const RadarParams& p = c.params;
      SceneConfig cfg;
      cfg.clutter_patches = 64;
      cfg.cnr_db = 40.0;
      const double easy_bin = static_cast<double>(p.doppler_bins() / 2);
      cfg.targets = {{p.ranges * 3 / 10, easy_bin, 0.0, 18.0, 1.5},
                     {p.ranges * 7 / 10, 1.0, -0.35, 25.0}};
      const SceneGenerator gen(p, cfg, 7);
      for (std::uint64_t cpi = 0; cpi < c.crc.size(); ++cpi) {
        const DataCube cube = gen.generate(cpi);
        const std::uint32_t crc =
            crc32c(cube.flat().data(), cube.flat().size_bytes());
        EXPECT_EQ(crc, c.crc[cpi])
            << simd::backend_name(b) << " " << p.channels << "x" << p.pulses
            << "x" << p.ranges << " cpi=" << cpi << std::hex << " crc=0x" << crc;
      }
    }
  }
}

// SplitMix64's output finalizer, inverted: the value a generator's state
// must reach for its next draw to be `z`.
std::uint64_t unmix(std::uint64_t z) {
  const auto unxorshift = [](std::uint64_t y, int k) {
    std::uint64_t x = y;
    for (int i = 0; i <= 64 / k; ++i) x = y ^ (x >> k);
    return x;
  };
  const auto inverse = [](std::uint64_t c) {  // mod 2^64, c odd (Newton)
    std::uint64_t v = c;
    for (int i = 0; i < 6; ++i) v *= 2 - c * v;
    return v;
  };
  z = unxorshift(z, 31);
  z *= inverse(0x94d049bb133111ebULL);
  z = unxorshift(z, 27);
  z *= inverse(0xbf58476d1ce4e5b9ULL);
  return unxorshift(z, 30);
}

constexpr std::uint64_t kSplitMixStep = 0x9e3779b97f4a7c15ULL;

/// A seed whose stream gives complex-normal element `e` a u1 draw of zero
/// (raw draw 0x5a5, below 2^11, so uniform() is exactly 0).
std::uint64_t seed_with_zero_draw_at(std::size_t e) {
  return unmix(0x5a5) - (2 * e + 1) * kSplitMixStep;
}

bool same_bytes(std::span<const cfloat> a, std::span<const cfloat> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(Scene, NoiseFillFallsBackToSerialStreamOnZeroDraw) {
  const std::size_t n = 5000;
  const double power = 2.0;
  struct Case {
    std::uint64_t seed;
    bool zero_draw;
  };
  std::vector<Case> cases = {{3, false}};
  for (const std::size_t at : {std::size_t{0}, std::size_t{1234}, n - 1}) {
    cases.push_back({seed_with_zero_draw_at(at), true});
    Rng probe(cases.back().seed);
    probe.discard(2 * at);
    ASSERT_EQ(probe.uniform(), 0.0) << "the crafted seed must hit element " << at;
  }
  for (const Case& c : cases) {
    // The serial loop: a zero u1 is redrawn, so it takes one extra draw.
    Rng serial(c.seed);
    std::vector<cfloat> want(n);
    for (cfloat& v : want) v = serial.complex_normal(power);
    Rng counted(c.seed);
    counted.discard(2 * n + (c.zero_draw ? 1 : 0));
    ASSERT_EQ(Rng(counted).next_u64(), Rng(serial).next_u64());
    for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
      Rng rng(c.seed);
      std::vector<cfloat> out(n, cfloat{std::numeric_limits<float>::quiet_NaN(), 0.0f});
      fill_complex_normal(out, rng, power, chunks);
      EXPECT_TRUE(same_bytes(out, want)) << "seed " << c.seed << " chunks " << chunks;
      EXPECT_EQ(rng.next_u64(), Rng(serial).next_u64())
          << "the stream must end where the serial loop ends; chunks " << chunks;
    }
  }
}

TEST(Scene, ChunkCountDoesNotChangeBytes) {
  SceneConfig cfg;
  cfg.cnr_db = 40.0;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const RadarParams& p : {RadarParams::test_small(), RadarParams{}}) {
    cfg.targets = {{p.ranges / 3, 1.0, -0.35, 25.0}};
    const SceneGenerator gen(p, cfg, 11);
    const std::uint64_t cpis = p.ranges > 512 ? 1 : 3;
    for (std::uint64_t cpi = 0; cpi < cpis; ++cpi) {
      const DataCube want = gen.generate(cpi);
      for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
        DataCube cube(p.channels, p.pulses, p.ranges);
        std::fill(cube.flat().begin(), cube.flat().end(), cfloat{nan, nan});
        gen.generate_into(cpi, cube, chunks);
        EXPECT_TRUE(same_bytes(cube.flat(), want.flat()))
            << p.channels << "x" << p.pulses << "x" << p.ranges << " cpi " << cpi
            << " chunks " << chunks;
      }
    }
  }
  // A cube of the wrong shape is refused.
  const SceneGenerator gen(RadarParams::test_small(), SceneConfig{}, 11);
  DataCube wrong(2, 17, 128);
  EXPECT_THROW(gen.generate_into(0, wrong), PreconditionError);
}

TEST(Scene, ZeroDrawInSceneNoiseKeepsTheSerialBytes) {
  // Noise only, so the cube is the serial draw loop onto zeros; CPI 0's
  // stream is seeded with seed ^ step, so the crafted state maps back.
  const RadarParams p = RadarParams::test_small();
  const std::size_t at = p.cube_samples() / 2 + 3;
  const std::uint64_t seed = seed_with_zero_draw_at(at) ^ kSplitMixStep;
  SceneConfig noise_only;
  noise_only.clutter_patches = 0;
  Rng serial(seed_with_zero_draw_at(at));
  std::vector<cfloat> want(p.cube_samples());
  for (cfloat& v : want) v += serial.complex_normal(noise_only.noise_power);
  SceneConfig with_clutter;
  with_clutter.cnr_db = 40.0;
  const DataCube clutter_ref = SceneGenerator(p, with_clutter, seed).generate(0);
  for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
    DataCube cube(p.channels, p.pulses, p.ranges);
    SceneGenerator(p, noise_only, seed).generate_into(0, cube, chunks);
    EXPECT_TRUE(same_bytes(cube.flat(), want)) << "chunks " << chunks;
    // The clutter draws follow the noise: they see the same stream.
    SceneGenerator(p, with_clutter, seed).generate_into(0, cube, chunks);
    EXPECT_TRUE(same_bytes(cube.flat(), clutter_ref.flat())) << "chunks " << chunks;
  }
}

TEST(Scene, SmallCubesSynthesizeOnOneChunk) {
  // test_small (small-separate's cube) and the kernel benches' 256-gate
  // cube size to one chunk, so their synthesis starts no thread.
  RadarParams bench = RadarParams::test_small();
  bench.ranges = 256;
  for (const RadarParams& p : {RadarParams::test_small(), bench}) {
    EXPECT_EQ(parallel_chunks(p.cube_samples(), SceneGenerator::kMinChunkSamples), 1u);
  }
}

// --------------------------------------------------------------- doppler --

TEST(Doppler, PureToneLandsInItsBin) {
  RadarParams p = RadarParams::test_small();
  const std::size_t m = p.doppler_bins();
  const std::size_t tone_bin = 8;  // easy bin for hw=2, m=16
  ASSERT_FALSE(p.is_hard_bin(tone_bin));
  DataCube cube(p.channels, p.pulses, p.ranges);
  for (std::size_t c = 0; c < p.channels; ++c)
    for (std::size_t pp = 0; pp < p.pulses; ++pp)
      for (std::size_t r = 0; r < p.ranges; ++r)
        cube.at(c, pp, r) = std::polar(
            1.0f, static_cast<float>(2.0 * std::numbers::pi * tone_bin * pp / m));

  DopplerFilter filt(p);
  const DopplerOutput out = filt.process(cube);
  // Find the local slot of tone_bin.
  const auto it = std::find(out.easy_bin_ids.begin(), out.easy_bin_ids.end(), tone_bin);
  ASSERT_NE(it, out.easy_bin_ids.end());
  const std::size_t slot = static_cast<std::size_t>(it - out.easy_bin_ids.begin());
  // The tone bin carries (almost) all the energy: compare to total.
  double tone_power = 0, total = 0;
  for (std::size_t bi = 0; bi < out.easy.bins(); ++bi)
    for (std::size_t c = 0; c < p.channels; ++c)
      for (std::size_t r = 0; r < p.ranges; ++r) {
        const double e = std::norm(out.easy.at(bi, c, r));
        total += e;
        if (bi == slot) tone_power += e;
      }
  EXPECT_GT(tone_power, 0.5 * total);  // Hann mainlobe keeps >50% in-bin
}

TEST(Doppler, StaggerPhaseRelationForPureTone) {
  // For a pure tone at hard bin b, the stagger-1 spectrum equals the
  // stagger-0 spectrum rotated by the Doppler phase e^{i psi_b}.
  RadarParams p = RadarParams::test_small();
  const std::size_t m = p.doppler_bins();
  const std::size_t tone_bin = 1;  // hard bin
  ASSERT_TRUE(p.is_hard_bin(tone_bin));
  DataCube cube(p.channels, p.pulses, p.ranges);
  for (std::size_t c = 0; c < p.channels; ++c)
    for (std::size_t pp = 0; pp < p.pulses; ++pp)
      for (std::size_t r = 0; r < p.ranges; ++r)
        cube.at(c, pp, r) = std::polar(
            1.0f, static_cast<float>(2.0 * std::numbers::pi * tone_bin * pp / m));

  DopplerFilter filt(p);
  const DopplerOutput out = filt.process(cube);
  const auto it = std::find(out.hard_bin_ids.begin(), out.hard_bin_ids.end(), tone_bin);
  ASSERT_NE(it, out.hard_bin_ids.end());
  const std::size_t slot = static_cast<std::size_t>(it - out.hard_bin_ids.begin());
  const cfloat shift = std::polar(1.0f, static_cast<float>(doppler_phase(tone_bin, m)));
  for (std::size_t c = 0; c < p.channels; ++c) {
    const cfloat s0 = out.hard.at(slot, c, 0);
    const cfloat s1 = out.hard.at(slot, p.channels + c, 0);
    ASSERT_GT(std::abs(s0), 1.0f);
    EXPECT_NEAR(std::abs(s1 - shift * s0) / std::abs(s0), 0.0, 1e-3);
  }
}

TEST(Doppler, OutputShapesMatchParams) {
  const RadarParams p = RadarParams::test_small();
  DopplerFilter filt(p);
  DataCube cube(p.channels, p.pulses, 17);  // slab narrower than full CPI
  const DopplerOutput out = filt.process(cube);
  EXPECT_EQ(out.easy.bins(), p.easy_bin_count());
  EXPECT_EQ(out.easy.dof(), p.channels);
  EXPECT_EQ(out.easy.ranges(), 17u);
  EXPECT_EQ(out.hard.bins(), p.hard_bin_count());
  EXPECT_EQ(out.hard.dof(), 2 * p.channels);
}

TEST(Doppler, ProcessIntoReusesArraysAndMatchesProcess) {
  const RadarParams p = RadarParams::test_small();
  SceneGenerator gen(p, SceneConfig{}, 21);
  DopplerFilter filt(p);
  const DataCube cube0 = gen.generate(0);
  const DataCube cube1 = gen.generate(1);

  DopplerOutput reused = filt.process(cube0);
  const cfloat* easy_storage = reused.easy.flat().data();
  const cfloat* hard_storage = reused.hard.flat().data();

  filt.process_into(cube1, reused);  // same shapes: must not reallocate
  EXPECT_EQ(reused.easy.flat().data(), easy_storage);
  EXPECT_EQ(reused.hard.flat().data(), hard_storage);

  const DopplerOutput fresh = filt.process(cube1);
  const auto re = reused.easy.flat();
  const auto fe = fresh.easy.flat();
  ASSERT_EQ(re.size(), fe.size());
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_NEAR(std::abs(re[i] - fe[i]), 0.0, 1e-5) << "easy element " << i;
  }
  const auto rh = reused.hard.flat();
  const auto fh = fresh.hard.flat();
  ASSERT_EQ(rh.size(), fh.size());
  for (std::size_t i = 0; i < rh.size(); ++i) {
    EXPECT_NEAR(std::abs(rh[i] - fh[i]), 0.0, 1e-5) << "hard element " << i;
  }
}

TEST(Doppler, RawSlabMatchesCubeOnEveryBackend) {
  // The raw-slab entry filters a slab in the order a read left it. Its
  // output must be bit-identical to process_into on the same samples as a
  // DataCube, for both file layouts, for 16 (radix 2), 15 (mixed radix)
  // and 23 (Rader) bins, on the full CPI, a ragged 45-gate slab and a
  // ragged sub-slab window.
  struct Window {
    std::size_t r0, r1;
  };
  const Window windows[] = {{0, 128}, {0, 45}, {83, 128}, {7, 52}};
  SimdBackendGuard guard;
  for (const std::size_t pulses : {17u, 16u, 24u}) {
    RadarParams p = RadarParams::test_small();
    p.pulses = pulses;
    SceneConfig cfg;
    cfg.cnr_db = 40.0;
    const DataCube cube = SceneGenerator(p, cfg, 31).generate(0);
    for (simd::Backend b : simd_backends()) {
      simd::force_backend(b);
      const DopplerFilter filt(p);
      DopplerOutput expect, got;
      for (const Window w : windows) {
        const std::size_t n = w.r1 - w.r0;
        DataCube sub(p.channels, p.pulses, n);
        std::vector<cfloat> range_major(n * p.pulses * p.channels);
        std::vector<cfloat> pulse_major(range_major.size());
        for (std::size_t c = 0; c < p.channels; ++c)
          for (std::size_t pp = 0; pp < p.pulses; ++pp)
            for (std::size_t r = 0; r < n; ++r) {
              const cfloat v = cube.at(c, pp, w.r0 + r);
              sub.at(c, pp, r) = v;
              range_major[(r * p.pulses + pp) * p.channels + c] = v;
              pulse_major[(pp * p.channels + c) * n + r] = v;
            }
        filt.process_into(sub, expect);
        for (const auto& [layout, raw] :
             {std::pair{FileLayout::kRangeMajor, &range_major},
              std::pair{FileLayout::kPulseMajor, &pulse_major}}) {
          filt.process_into(*raw, n, layout, got);
          const std::string where =
              std::string(simd::backend_name(b)) + ", " +
              std::to_string(p.doppler_bins()) + " bins, gates [" +
              std::to_string(w.r0) + ", " + std::to_string(w.r1) + "), " +
              (layout == FileLayout::kRangeMajor ? "range-major" : "pulse-major");
          EXPECT_EQ(got.easy_bin_ids, expect.easy_bin_ids) << where;
          EXPECT_EQ(got.hard_bin_ids, expect.hard_bin_ids) << where;
          ASSERT_EQ(got.easy.ranges(), n) << where;
          ASSERT_EQ(got.hard.ranges(), n) << where;
          EXPECT_EQ(std::memcmp(got.easy.flat().data(), expect.easy.flat().data(),
                                expect.easy.flat().size_bytes()),
                    0)
              << where;
          EXPECT_EQ(std::memcmp(got.hard.flat().data(), expect.hard.flat().data(),
                                expect.hard.flat().size_bytes()),
                    0)
              << where;
        }
      }
    }
  }
}

// Pooled storage holding `count` NaNs: whatever an output leaves unwritten
// shows as NaN, which no comparison with a real output passes.
Buffer nan_poisoned(BufferPool& pool, std::size_t count) {
  Buffer buf = pool.acquire_elems<cfloat>(count);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (cfloat& v : buf.as_span<cfloat>()) v = cfloat(nan, nan);
  return buf;
}

TEST(Doppler, WritesEveryElementOfHandedInStorage) {
  // The pipeline hands the filter fresh pooled storage every CPI without
  // zero-filling it. Into NaN-poisoned storage, both entries must produce
  // exactly what they produce into fresh zero-filled arrays, on every
  // backend, for radix-2, mixed-radix and Rader bin counts and a ragged
  // gate count (45: one full 32-gate block and a 13-gate tail).
  SimdBackendGuard guard;
  BufferPool pool;
  for (const std::size_t pulses : {17u, 16u, 24u}) {
    RadarParams p = RadarParams::test_small();
    p.pulses = pulses;
    const std::size_t gates = 45;
    SceneConfig cfg;
    cfg.cnr_db = 40.0;
    const DataCube full = SceneGenerator(p, cfg, 37).generate(0);
    DataCube cube(p.channels, p.pulses, gates);
    std::vector<cfloat> raw(cube.slab_samples(0, gates));
    for (std::size_t c = 0; c < p.channels; ++c)
      for (std::size_t pp = 0; pp < p.pulses; ++pp)
        for (std::size_t r = 0; r < gates; ++r) cube.at(c, pp, r) = full.at(c, pp, r);
    cube.pack_file_order(0, gates, raw);
    const std::size_t n_easy = p.easy_bin_count() * p.easy_dof() * gates;
    const std::size_t n_hard = p.hard_bin_count() * p.hard_dof() * gates;
    for (simd::Backend b : simd_backends()) {
      simd::force_backend(b);
      const DopplerFilter filt(p);
      const DopplerOutput fresh = filt.process(cube);
      for (const bool from_raw : {false, true}) {
        DopplerOutput out;
        out.easy = BinArray(p.easy_bin_count(), p.easy_dof(), gates,
                            nan_poisoned(pool, n_easy));
        out.hard = BinArray(p.hard_bin_count(), p.hard_dof(), gates,
                            nan_poisoned(pool, n_hard));
        const cfloat* easy_storage = out.easy.flat().data();
        if (from_raw) {
          filt.process_into(raw, gates, FileLayout::kRangeMajor, out);
        } else {
          filt.process_into(cube, out);
        }
        const std::string where = std::string(simd::backend_name(b)) + ", " +
                                  std::to_string(p.doppler_bins()) + " bins, " +
                                  (from_raw ? "raw slab" : "cube");
        EXPECT_EQ(out.easy.flat().data(), easy_storage)
            << where << ": handed-in storage must be written, not replaced";
        EXPECT_EQ(std::memcmp(out.easy.flat().data(), fresh.easy.flat().data(),
                              fresh.easy.flat().size_bytes()),
                  0)
            << where;
        EXPECT_EQ(std::memcmp(out.hard.flat().data(), fresh.hard.flat().data(),
                              fresh.hard.flat().size_bytes()),
                  0)
            << where;
      }
    }
  }
}

TEST(Doppler, WritesEveryElementAtAnUnalignedBase) {
  // Outputs of DopplerFilter::kStreamMinBytes or more are routed with
  // streaming stores on the 16/32-byte-aligned interior of each row, plain
  // stores on the rest; smaller ones with plain stores only. At 45 gates
  // (below the threshold) and at the fewest gates reaching it (3121, a
  // ragged last block), output arrays sliced off a pooled buffer at a
  // 4-byte base offset (no row ever aligns) and at an 8-byte one (rows
  // start at every 8-byte phase: heads, streamed interiors and tails) must
  // match fresh arrays bit for bit, and the poisoned bytes around them
  // must stay untouched.
  SimdBackendGuard guard;
  BufferPool pool;
  RadarParams p = RadarParams::test_small();
  const std::size_t gate_bytes =
      (p.easy_bin_count() * p.easy_dof() + p.hard_bin_count() * p.hard_dof()) *
      sizeof(cfloat);
  p.ranges = (DopplerFilter::kStreamMinBytes + gate_bytes - 1) / gate_bytes;
  SceneConfig cfg;
  cfg.cnr_db = 40.0;
  const DataCube full = SceneGenerator(p, cfg, 43).generate(0);
  for (const std::size_t gates : {std::size_t{45}, p.ranges}) {
    DataCube cube(p.channels, p.pulses, gates);
    for (std::size_t c = 0; c < p.channels; ++c)
      for (std::size_t pp = 0; pp < p.pulses; ++pp)
        for (std::size_t r = 0; r < gates; ++r) cube.at(c, pp, r) = full.at(c, pp, r);
    const std::size_t easy_bytes =
        p.easy_bin_count() * p.easy_dof() * gates * sizeof(cfloat);
    const std::size_t hard_bytes =
        p.hard_bin_count() * p.hard_dof() * gates * sizeof(cfloat);
    ASSERT_EQ(easy_bytes + hard_bytes >= DopplerFilter::kStreamMinBytes, gates != 45);
    for (simd::Backend b : simd_backends()) {
      simd::force_backend(b);
      const DopplerFilter filt(p);
      const DopplerOutput fresh = filt.process(cube);
      for (const std::size_t offset : {sizeof(float), sizeof(cfloat)}) {
        // One poisoned cfloat of slack on each side of each array.
        const Buffer easy_buf = nan_poisoned(pool, easy_bytes / sizeof(cfloat) + 2);
        const Buffer hard_buf = nan_poisoned(pool, hard_bytes / sizeof(cfloat) + 2);
        DopplerOutput out;
        out.easy = BinArray(p.easy_bin_count(), p.easy_dof(), gates,
                            easy_buf.slice(offset, easy_bytes));
        out.hard = BinArray(p.hard_bin_count(), p.hard_dof(), gates,
                            hard_buf.slice(offset, hard_bytes));
        filt.process_into(cube, out);
        const std::string where = std::string(simd::backend_name(b)) + ", " +
                                  std::to_string(gates) + " gates, base offset " +
                                  std::to_string(offset);
        EXPECT_EQ(std::memcmp(out.easy.flat().data(), fresh.easy.flat().data(),
                              easy_bytes),
                  0)
            << where;
        EXPECT_EQ(std::memcmp(out.hard.flat().data(), fresh.hard.flat().data(),
                              hard_bytes),
                  0)
            << where;
        for (const auto& [buf, body] : {std::pair{&easy_buf, easy_bytes},
                                        std::pair{&hard_buf, hard_bytes}}) {
          const auto bytes = buf->as_span<std::byte>();
          for (std::size_t i = 0; i < bytes.size(); i += sizeof(float)) {
            if (i == offset) i += body;
            std::uint32_t word = 0;
            std::memcpy(&word, bytes.data() + i, sizeof(word));
            ASSERT_EQ(word, 0x7fc00000u) << where << ": wrote byte " << i << " outside";
          }
        }
      }
    }
  }
}

TEST(Doppler, ChunkCountDoesNotChangeBytes) {
  // Each chunk filters whole 32-gate blocks into its own column windows,
  // so the bytes cannot depend on the split. For chunk counts 1, 2, 3 and
  // 7, both entries and both file layouts must reproduce the one-chunk
  // cube output bit for bit, into NaN-poisoned pooled storage, on every
  // backend: at the paper geometry (streamed output) and at 23 bins with a
  // ragged last block, below (1000 gates) and above (2500 gates)
  // kStreamMinBytes.
  SimdBackendGuard guard;
  BufferPool pool;
  RadarParams rader = RadarParams::test_small();
  rader.pulses = 24;
  std::vector<RadarParams> geometries{RadarParams{}, rader, rader};
  geometries[1].ranges = 1000;
  geometries[2].ranges = 2500;
  for (const RadarParams& p : geometries) {
    SceneConfig cfg;
    cfg.cnr_db = 40.0;
    cfg.targets = {{p.ranges / 3, 1.0, -0.35, 25.0}};
    const DataCube cube = SceneGenerator(p, cfg, 53).generate(0);
    std::vector<cfloat> range_major(cube.samples());
    cube.pack_file_order(0, p.ranges, range_major);
    std::vector<cfloat> pulse_major(cube.samples());
    for (std::size_t c = 0; c < p.channels; ++c)
      for (std::size_t pp = 0; pp < p.pulses; ++pp)
        for (std::size_t r = 0; r < p.ranges; ++r)
          pulse_major[(pp * p.channels + c) * p.ranges + r] = cube.at(c, pp, r);
    const std::size_t n_easy = p.easy_bin_count() * p.easy_dof() * p.ranges;
    const std::size_t n_hard = p.hard_bin_count() * p.hard_dof() * p.ranges;
    const bool streamed =
        (n_easy + n_hard) * sizeof(cfloat) >= DopplerFilter::kStreamMinBytes;
    EXPECT_EQ(streamed, p.ranges != 1000);
    for (simd::Backend b : simd_backends()) {
      simd::force_backend(b);
      const DopplerFilter filt(p);
      DopplerOutput want;
      filt.process_into(cube, want, 1);
      for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
        for (const int entry : {0, 1, 2}) {
          DopplerOutput out;
          out.easy = BinArray(p.easy_bin_count(), p.easy_dof(), p.ranges,
                              nan_poisoned(pool, n_easy));
          out.hard = BinArray(p.hard_bin_count(), p.hard_dof(), p.ranges,
                              nan_poisoned(pool, n_hard));
          if (entry == 0) {
            filt.process_into(cube, out, chunks);
          } else if (entry == 1) {
            filt.process_into(range_major, p.ranges, FileLayout::kRangeMajor, out,
                              chunks);
          } else {
            filt.process_into(pulse_major, p.ranges, FileLayout::kPulseMajor, out,
                              chunks);
          }
          const std::string where =
              std::string(simd::backend_name(b)) + ", " +
              std::to_string(p.doppler_bins()) + " bins x " +
              std::to_string(p.ranges) + " gates, " + std::to_string(chunks) +
              " chunks, " +
              (entry == 0 ? "cube" : entry == 1 ? "range-major" : "pulse-major");
          EXPECT_TRUE(same_bytes(out.easy.flat(), want.easy.flat())) << where;
          EXPECT_TRUE(same_bytes(out.hard.flat(), want.hard.flat())) << where;
        }
      }
    }
  }
}

TEST(Doppler, SmallInputsFilterOnOneChunk) {
  // test_small (small-separate's cube) and the kernel benches' 256-gate
  // cube size to one chunk, so their filter starts no thread; the paper
  // geometry splits wherever the caller has a second CPU.
  RadarParams bench = RadarParams::test_small();
  bench.ranges = 256;
  for (const RadarParams& p : {RadarParams::test_small(), bench}) {
    EXPECT_EQ(parallel_chunks(p.cube_samples(), DopplerFilter::kMinChunkSamples), 1u);
  }
  EXPECT_GE(RadarParams{}.cube_samples() / DopplerFilter::kMinChunkSamples, 2u);
}

TEST(Doppler, RejectsMismatchedRawSlab) {
  const RadarParams p = RadarParams::test_small();
  DopplerFilter filt(p);
  DopplerOutput out;
  std::vector<cfloat> raw(10 * p.pulses * p.channels);
  EXPECT_THROW(filt.process_into(raw, 11, FileLayout::kRangeMajor, out),
               PreconditionError);
}

TEST(Doppler, RejectsMismatchedCube) {
  const RadarParams p = RadarParams::test_small();
  DopplerFilter filt(p);
  DataCube wrong(p.channels + 1, p.pulses, p.ranges);
  EXPECT_THROW(filt.process(wrong), PreconditionError);
}

TEST(Doppler, WindowIsNormalizedHann) {
  const RadarParams p = RadarParams::test_small();
  DopplerFilter filt(p);
  const auto& w = filt.window();
  ASSERT_EQ(w.size(), p.doppler_bins());
  double sum = 0;
  for (float v : w) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(w.size()), 1.0, 1e-6);
  EXPECT_LT(w.front(), 0.1f);  // tapers at the edges
}

// --------------------------------------------------------------- weights --

TEST(Weights, NoiseOnlyWeightsApproachSteering) {
  // With white noise, R ~ sigma^2 I, so MVDR weights ~ s / |s|^2.
  RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.clutter_patches = 0;
  SceneGenerator gen(p, cfg, 3);
  DopplerFilter filt(p);
  const DopplerOutput out = filt.process(gen.generate(0));

  WeightComputer wc(p, out.easy_bin_ids, p.easy_dof());
  const WeightSet ws = wc.compute(out.easy);
  EXPECT_EQ(ws.bins(), out.easy.bins());
  EXPECT_EQ(ws.dof(), p.easy_dof());

  const auto s = wc.steering(out.easy_bin_ids[0], 0);
  const auto w = ws.at(0, 0);
  // Distortionless: w^H s == 1.
  cdouble gain{};
  for (std::size_t d = 0; d < s.size(); ++d)
    gain += std::conj(cdouble(w[d].real(), w[d].imag())) * cdouble(s[d].real(), s[d].imag());
  EXPECT_NEAR(std::abs(gain), 1.0, 0.05);
  // Direction: w is nearly parallel to s (cosine similarity ~ 1).
  double ws_dot = 0, wn = 0, sn = 0;
  for (std::size_t d = 0; d < s.size(); ++d) {
    ws_dot += std::abs(std::conj(cdouble(w[d].real(), w[d].imag())) *
                       cdouble(s[d].real(), s[d].imag()));
    wn += std::norm(w[d]);
    sn += std::norm(s[d]);
  }
  EXPECT_GT(ws_dot / std::sqrt(wn * sn), 0.9);
}

TEST(Weights, DistortionlessResponseOnHardBins) {
  RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.cnr_db = 40.0;
  SceneGenerator gen(p, cfg, 4);
  DopplerFilter filt(p);
  const DopplerOutput out = filt.process(gen.generate(0));

  WeightComputer wc(p, out.hard_bin_ids, p.hard_dof());
  const WeightSet ws = wc.compute(out.hard);
  for (std::size_t bi = 0; bi < ws.bins(); ++bi) {
    for (std::size_t beam = 0; beam < p.beams; ++beam) {
      const auto s = wc.steering(out.hard_bin_ids[bi], beam);
      const auto w = ws.at(bi, beam);
      cdouble gain{};
      for (std::size_t d = 0; d < s.size(); ++d)
        gain += std::conj(cdouble(w[d].real(), w[d].imag())) *
                cdouble(s[d].real(), s[d].imag());
      EXPECT_NEAR(std::abs(gain), 1.0, 0.02) << "bin " << bi << " beam " << beam;
    }
  }
}

TEST(Weights, AdaptiveBeatsConventionalAgainstClutter) {
  // SINR test: adaptive weights should suppress clutter much better than
  // conventional (steering-only) weights at a hard bin.
  RadarParams p = RadarParams::test_small();
  p.beams = 1;
  SceneConfig cfg;
  cfg.cnr_db = 50.0;
  SceneGenerator gen(p, cfg, 5);
  DopplerFilter filt(p);
  const DopplerOutput prev = filt.process(gen.generate(0));
  const DopplerOutput cur = filt.process(gen.generate(1));

  WeightComputer wc(p, prev.hard_bin_ids, p.hard_dof());
  const WeightSet adaptive = wc.compute(prev.hard);

  // Conventional: w = s / |s|^2. Evaluate at hard bin 2 (not DC): there the
  // angle-coupled ridge sits near endfire while the beam looks at
  // boresight, so clutter and look direction are separable. (At DC with a
  // boresight beam the ridge passes through the look direction — a
  // physical blind spot no filter can null.)
  const auto it2 = std::find(prev.hard_bin_ids.begin(), prev.hard_bin_ids.end(),
                             std::size_t{2});
  ASSERT_NE(it2, prev.hard_bin_ids.end());
  const std::size_t bi = static_cast<std::size_t>(it2 - prev.hard_bin_ids.begin());
  const auto s = wc.steering(prev.hard_bin_ids[bi], 0);
  double s2 = 0;
  for (const auto& v : s) s2 += std::norm(v);

  auto output_power = [&](std::span<const cfloat> w) {
    double pwr = 0;
    std::vector<cfloat> x(p.hard_dof());
    for (std::size_t r = 0; r < p.ranges; ++r) {
      cur.hard.snapshot(bi, r, x);
      cfloat y{};
      for (std::size_t d = 0; d < x.size(); ++d) y += std::conj(w[d]) * x[d];
      pwr += std::norm(y);
    }
    return pwr / static_cast<double>(p.ranges);
  };

  std::vector<cfloat> conventional(s.size());
  for (std::size_t d = 0; d < s.size(); ++d)
    conventional[d] = s[d] * static_cast<float>(1.0 / s2);

  const double adaptive_out = output_power(adaptive.at(bi, 0));
  const double conventional_out = output_power(conventional);
  // Both are distortionless toward s, so lower output power = more clutter
  // rejected. Demand at least 10 dB improvement.
  EXPECT_LT(adaptive_out * 10.0, conventional_out);
}

// Householder QR-SMI oracle for one bin: R^H R equals the loaded sample
// covariance when A stacks conj(snapshot) / sqrt(K) rows over sqrt(load) * I,
// so R^H R w = s solves the same system as the Cholesky route without ever
// forming R. The reflector applications (v^H A and the rank-1 update) run on
// the FMA-free cgemm_planar_exact entry of the active SIMD backend; the rest
// is scalar code.
std::vector<cfloat> qr_smi_weights(const RadarParams& p, const BinArray& spectra,
                                   std::size_t bi, std::span<const cfloat> s) {
  const std::size_t dof = spectra.dof();
  const std::size_t training =
      std::min<std::size_t>(p.training_ranges, spectra.ranges());
  double trace = 0.0;
  for (std::size_t t = 0; t < training; ++t)
    for (std::size_t d = 0; d < dof; ++d)
      trace += std::norm(spectra.at(bi, d, t)) / static_cast<double>(training);
  const double load =
      p.diagonal_loading * (trace / static_cast<double>(dof)) + 1e-12;

  const std::size_t rows = training + dof;
  std::vector<cfloat> a(rows * dof, cfloat{});
  const float row_scale = static_cast<float>(1.0 / std::sqrt(double(training)));
  for (std::size_t t = 0; t < training; ++t)
    for (std::size_t d = 0; d < dof; ++d)
      a[t * dof + d] = std::conj(spectra.at(bi, d, t)) * row_scale;
  for (std::size_t d = 0; d < dof; ++d)
    a[(training + d) * dof + d] = static_cast<float>(std::sqrt(load));

  const simd::Ops& o = simd::ops();
  std::vector<float> vr(rows), vi(rows);
  std::vector<cfloat> u(dof);
  for (std::size_t j = 0; j < dof; ++j) {
    const std::size_t m = rows - j, n = dof - j - 1;
    double norm2 = 0.0;
    for (std::size_t i = j; i < rows; ++i) norm2 += std::norm(a[i * dof + j]);
    const cfloat x0 = a[j * dof + j];
    const float ax0 = std::abs(x0);
    const cfloat phase = ax0 > 0.0f ? x0 / ax0 : cfloat{1.0f, 0.0f};
    const cfloat alpha = -phase * static_cast<float>(std::sqrt(norm2));
    // v = x - alpha * e1; H = I - beta v v^H with beta = 2 / (v^H v).
    double vnorm2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const cfloat v = a[(j + i) * dof + j] - (i == 0 ? alpha : cfloat{});
      vr[i] = v.real();
      vi[i] = v.imag();
      vnorm2 += std::norm(v);
    }
    a[j * dof + j] = alpha;
    for (std::size_t i = 1; i < m; ++i) a[(j + i) * dof + j] = {};
    if (n == 0 || vnorm2 == 0.0) continue;
    cfloat* sub = a.data() + j * dof + j + 1;
    // u = v^H A_sub (a 1 x m by m x n product; conj(v) is the packed A row).
    std::vector<float> cr(m), ci(m);
    for (std::size_t i = 0; i < m; ++i) {
      cr[i] = vr[i];
      ci[i] = -vi[i];
    }
    std::fill(u.begin(), u.begin() + n, cfloat{});
    o.cgemm_planar_exact(reinterpret_cast<float*>(u.data()), n, cr.data(),
                         ci.data(), 1, m, reinterpret_cast<const float*>(sub),
                         dof, n);
    // A_sub += (-beta v) u (an m x 1 by 1 x n product).
    const float beta = static_cast<float>(2.0 / vnorm2);
    for (std::size_t i = 0; i < m; ++i) {
      cr[i] = -beta * vr[i];
      ci[i] = -beta * vi[i];
    }
    o.cgemm_planar_exact(reinterpret_cast<float*>(sub), dof, cr.data(),
                         ci.data(), m, 1, reinterpret_cast<const float*>(u.data()),
                         n, n);
  }

  // R^H y = s (forward), then R w = y (backward), then w / (s^H w).
  std::vector<cdouble> w(dof);
  const auto r = [&](std::size_t i, std::size_t k) {
    const cfloat v = a[i * dof + k];
    return cdouble(v.real(), v.imag());
  };
  for (std::size_t i = 0; i < dof; ++i) {
    cdouble acc(s[i].real(), s[i].imag());
    for (std::size_t k = 0; k < i; ++k) acc -= std::conj(r(k, i)) * w[k];
    w[i] = acc / std::conj(r(i, i));
  }
  for (std::size_t i = dof; i-- > 0;) {
    cdouble acc = w[i];
    for (std::size_t k = i + 1; k < dof; ++k) acc -= r(i, k) * w[k];
    w[i] = acc / r(i, i);
  }
  cdouble denom{};
  for (std::size_t d = 0; d < dof; ++d)
    denom += std::conj(cdouble(s[d].real(), s[d].imag())) * w[d];
  std::vector<cfloat> out(dof);
  for (std::size_t d = 0; d < dof; ++d) {
    const cdouble v = w[d] / denom;
    out[d] = {static_cast<float>(v.real()), static_cast<float>(v.imag())};
  }
  return out;
}

TEST(Weights, QrSolverMatchesCholeskySolver) {
  // The QR oracle and the production Cholesky route solve the same loaded
  // system; the weights must agree to numerical precision on both easy and
  // hard bins.
  RadarParams p = RadarParams::test_small();
  SceneConfig cfg;
  cfg.cnr_db = 45.0;
  SceneGenerator gen(p, cfg, 6);
  DopplerFilter filt(p);
  const DopplerOutput out = filt.process(gen.generate(0));

  for (const bool hard : {false, true}) {
    const auto& ids = hard ? out.hard_bin_ids : out.easy_bin_ids;
    const auto& arr = hard ? out.hard : out.easy;
    const std::size_t dof = hard ? p.hard_dof() : p.easy_dof();
    WeightComputer chol(p, ids, dof);
    const WeightSet a = chol.compute(arr);
    double max_w = 0;
    for (const auto& v : a.flat()) max_w = std::max(max_w, double(std::abs(v)));
    for (std::size_t bi = 0; bi < ids.size(); ++bi) {
      for (std::size_t beam = 0; beam < p.beams; ++beam) {
        const auto s = chol.steering(ids[bi], beam);
        const std::vector<cfloat> b = qr_smi_weights(p, arr, bi, s);
        const auto aw = a.at(bi, beam);
        for (std::size_t d = 0; d < dof; ++d) {
          EXPECT_NEAR(std::abs(aw[d] - b[d]), 0.0, 1e-3 * max_w)
              << (hard ? "hard" : "easy") << " bin " << ids[bi] << " beam "
              << beam << " d " << d;
        }
      }
    }
  }
}

TEST(Weights, QrWeightsBitIdenticalAcrossSimdBackends) {
  // The QR oracle's Householder sweeps ride the FMA-free cgemm_planar_exact
  // entry, so the whole QR-SMI weight solve is bit-invariant across SIMD
  // backends: any contraction or reordering in a backend's exact GEMM would
  // compound through the dof reflector steps and show here. Twelve channels
  // give a hard DOF of 24, so the rank-1 updates are wide enough to reach
  // the AVX2 4 x 8 register blocks, not only their scalar edges.
  SimdBackendGuard guard;
  simd::force_backend(simd::Backend::kScalar);
  RadarParams p = RadarParams::test_small();
  p.channels = 12;
  p.training_ranges = 64;
  p.beams = 3;
  SceneGenerator gen(p, SceneConfig{}, 34);
  DopplerFilter filt(p);
  const DopplerOutput out = filt.process(gen.generate(0));
  WeightComputer wc(p, out.hard_bin_ids, p.hard_dof());

  std::vector<std::vector<cfloat>> ref;
  for (std::size_t bi = 0; bi < out.hard_bin_ids.size(); ++bi)
    for (std::size_t beam = 0; beam < p.beams; ++beam)
      ref.push_back(
          qr_smi_weights(p, out.hard, bi, wc.steering(out.hard_bin_ids[bi], beam)));

  for (simd::Backend b : simd_backends()) {
    simd::force_backend(b);
    std::size_t idx = 0;
    for (std::size_t bi = 0; bi < out.hard_bin_ids.size(); ++bi) {
      for (std::size_t beam = 0; beam < p.beams; ++beam, ++idx) {
        const std::vector<cfloat> got = qr_smi_weights(
            p, out.hard, bi, wc.steering(out.hard_bin_ids[bi], beam));
        const std::vector<cfloat>& rw = ref[idx];
        for (std::size_t d = 0; d < p.hard_dof(); ++d) {
          EXPECT_EQ(got[d].real(), rw[d].real())
              << simd::backend_name(b) << " bin=" << bi << " beam=" << beam;
          EXPECT_EQ(got[d].imag(), rw[d].imag());
        }
      }
    }
  }
}

TEST(Weights, RejectsMismatchedSpectra) {
  const RadarParams p = RadarParams::test_small();
  WeightComputer wc(p, p.easy_bins(), p.easy_dof());
  BinArray wrong(p.easy_bin_count() - 1, p.easy_dof(), p.ranges);
  EXPECT_THROW(wc.compute(wrong), PreconditionError);
  BinArray wrong_dof(p.easy_bin_count(), p.hard_dof(), p.ranges);
  EXPECT_THROW(wc.compute(wrong_dof), PreconditionError);
}

TEST(Weights, RejectsBadDofOrBins) {
  const RadarParams p = RadarParams::test_small();
  EXPECT_THROW(WeightComputer(p, p.easy_bins(), 3), PreconditionError);
  EXPECT_THROW(WeightComputer(p, {p.doppler_bins()}, p.easy_dof()), PreconditionError);
}

// -------------------------------------------------------------- beamform --

TEST(Beamform, HandComputedTwoChannelCase) {
  RadarParams p = RadarParams::test_small();
  Beamformer bf(p);
  BinArray spectra(1, p.channels, 3);
  WeightSet ws(1, p.beams, p.channels);
  // x = e_0 (only channel 0 nonzero), w = e_0 -> y = x_0.
  for (std::size_t r = 0; r < 3; ++r) spectra.at(0, 0, r) = {float(r + 1), 0.0f};
  for (std::size_t beam = 0; beam < p.beams; ++beam) ws.at(0, beam)[0] = {1.0f, 0.0f};
  const BeamArray y = bf.apply(spectra, ws);
  EXPECT_EQ(y.bins(), 1u);
  EXPECT_EQ(y.beams(), p.beams);
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_NEAR(std::abs(y.at(0, 0, r) - cfloat{float(r + 1), 0.0f}), 0.0, 1e-6);
}

TEST(Beamform, ConjugationConvention) {
  // y = w^H x: with w = i and x = i, y = conj(i)*i = 1.
  RadarParams p = RadarParams::test_small();
  p.beams = 1;
  Beamformer bf(p);
  BinArray spectra(1, p.channels, 1);
  WeightSet ws(1, 1, p.channels);
  spectra.at(0, 0, 0) = {0.0f, 1.0f};
  ws.at(0, 0)[0] = {0.0f, 1.0f};
  const BeamArray y = bf.apply(spectra, ws);
  EXPECT_NEAR(y.at(0, 0, 0).real(), 1.0f, 1e-6);
  EXPECT_NEAR(y.at(0, 0, 0).imag(), 0.0f, 1e-6);
}

TEST(Beamform, ApplyIntoWritesEveryElementOfHandedInStorage) {
  // apply_into accumulates onto columns it zeroes itself, so NaN-poisoned
  // pooled storage ends up bit-identical to apply()'s fresh array, on every
  // backend: filled in one call, or window by window as a beamform node
  // fills it from three Doppler nodes, each window filtered on its own.
  // The windows are the Doppler task's, whole 32-gate filter blocks.
  SimdBackendGuard guard;
  const RadarParams p = RadarParams::test_small();
  ASSERT_EQ(p.ranges, 128u);
  const std::pair<std::size_t, std::size_t> windows[] = {{0, 64}, {64, 96}, {96, 128}};
  SceneConfig cfg;
  cfg.cnr_db = 40.0;
  const DataCube cube = SceneGenerator(p, cfg, 41).generate(0);
  BufferPool pool;
  for (simd::Backend b : simd_backends()) {
    simd::force_backend(b);
    const DopplerFilter filt(p);
    const DopplerOutput spectra = filt.process(cube);
    std::vector<DopplerOutput> parts;
    for (const auto& [lo, hi] : windows) {
      std::vector<cfloat> raw(cube.slab_samples(lo, hi));
      cube.pack_file_order(lo, hi, raw);
      filt.process_into(raw, hi - lo, FileLayout::kRangeMajor, parts.emplace_back());
    }
    const Beamformer bf(p);
    for (const bool hard : {false, true}) {
      const std::string where =
          std::string(simd::backend_name(b)) + (hard ? ", hard" : ", easy");
      const BinArray& full = hard ? spectra.hard : spectra.easy;
      const WeightComputer wc(p, hard ? spectra.hard_bin_ids : spectra.easy_bin_ids,
                              full.dof());
      const WeightSet ws = wc.compute(full);
      const BeamArray expect = bf.apply(full, ws);
      const std::size_t n = full.bins() * p.beams * p.ranges;

      BeamArray whole(full.bins(), p.beams, p.ranges, nan_poisoned(pool, n));
      bf.apply_into(full, ws, whole, 0);
      EXPECT_EQ(std::memcmp(whole.flat().data(), expect.flat().data(),
                            expect.flat().size_bytes()),
                0)
          << where;

      BeamArray windowed(full.bins(), p.beams, p.ranges, nan_poisoned(pool, n));
      for (std::size_t w = 0; w < parts.size(); ++w) {
        bf.apply_into(hard ? parts[w].hard : parts[w].easy, ws, windowed,
                      windows[w].first);
      }
      EXPECT_EQ(std::memcmp(windowed.flat().data(), expect.flat().data(),
                            expect.flat().size_bytes()),
                0)
          << where << ", windowed";
      // An empty window (more Doppler nodes than filter blocks) writes nothing.
      bf.apply_into(BinArray(full.bins(), full.dof(), 0), ws, windowed, p.ranges);
      EXPECT_EQ(std::memcmp(windowed.flat().data(), expect.flat().data(),
                            expect.flat().size_bytes()),
                0)
          << where << ", empty window";

      BeamArray wrong(full.bins(), p.beams, p.ranges - 1);
      EXPECT_THROW(bf.apply_into(full, ws, wrong, 0), PreconditionError);
      // A window running past the output's last gate.
      EXPECT_THROW(bf.apply_into(hard ? parts[2].hard : parts[2].easy, ws, windowed, 97),
                   PreconditionError);
    }
  }
}

TEST(Beamform, RejectsMismatchedWeights) {
  const RadarParams p = RadarParams::test_small();
  Beamformer bf(p);
  BinArray spectra(2, p.channels, 4);
  WeightSet ws(3, p.beams, p.channels);
  EXPECT_THROW(bf.apply(spectra, ws), PreconditionError);
}

// -------------------------------------------------------- pulse compress --

// One range series through the production batched path: a BeamArray of one
// bin and one beam.
std::vector<cfloat> compress_one(const PulseCompressor& pc,
                                 const std::vector<cfloat>& series) {
  BeamArray beams(1, 1, series.size());
  std::copy(series.begin(), series.end(), beams.flat().begin());
  pc.compress(beams);
  return {beams.flat().begin(), beams.flat().end()};
}

// The matched filter written out: circular correlation of the series with
// the code, normalized by the code length, in double precision.
std::vector<cdouble> naive_compress(const std::vector<cfloat>& code,
                                    std::span<const cfloat> series) {
  const std::size_t n = series.size();
  std::vector<cdouble> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    cdouble acc{};
    for (std::size_t k = 0; k < code.size(); ++k) {
      const cfloat v = series[(r + k) % n];
      acc += cdouble(v.real(), v.imag()) *
             std::conj(cdouble(code[k].real(), code[k].imag()));
    }
    out[r] = acc / static_cast<double>(code.size());
  }
  return out;
}

TEST(PulseCompress, CodeEchoCompressesToItsGate) {
  RadarParams p = RadarParams::test_small();
  PulseCompressor pc(p);
  const auto& code = pc.code();
  std::vector<cfloat> series(p.ranges, cfloat{});
  const std::size_t r0 = 40;
  for (std::size_t k = 0; k < code.size(); ++k) series[r0 + k] = code[k];
  series = compress_one(pc, series);
  // Peak at r0 with (normalized) amplitude ~1; elsewhere low sidelobes.
  EXPECT_NEAR(std::abs(series[r0]), 1.0, 1e-4);
  for (std::size_t r = 0; r < p.ranges; ++r) {
    if (r != r0) {
      EXPECT_LT(std::abs(series[r]), 0.8) << "range " << r;
    }
  }
}

TEST(PulseCompress, MatchesNaiveCircularCorrelation) {
  RadarParams p = RadarParams::test_small();
  p.ranges = 64;
  PulseCompressor pc(p);
  Rng rng(9);
  std::vector<cfloat> series(p.ranges);
  for (auto& v : series) v = rng.complex_normal();
  const auto expect = naive_compress(pc.code(), series);
  series = compress_one(pc, series);
  for (std::size_t r = 0; r < p.ranges; r += 7) {
    EXPECT_NEAR(std::abs(cdouble(series[r].real(), series[r].imag()) - expect[r]),
                0.0, 1e-3);
  }
}

TEST(PulseCompress, SnrGainOnNoisyEcho) {
  RadarParams p = RadarParams::test_small();
  PulseCompressor pc(p);
  const auto& code = pc.code();
  Rng rng(11);
  std::vector<cfloat> series(p.ranges);
  const double noise_power = 1.0;
  for (auto& v : series) v = rng.complex_normal(noise_power);
  const std::size_t r0 = 64;
  const float amp = 1.0f;  // 0 dB per-sample SNR
  for (std::size_t k = 0; k < code.size(); ++k) series[r0 + k] += amp * code[k];
  series = compress_one(pc, series);
  // Post-compression noise power ~ 1/L; peak ~ amp -> SNR gain ~ L (9 dB for L=8).
  double noise_est = 0;
  std::size_t count = 0;
  for (std::size_t r = 0; r < p.ranges; ++r) {
    if (r < r0 - 8 || r > r0 + 8) {
      noise_est += std::norm(series[r]);
      ++count;
    }
  }
  noise_est /= static_cast<double>(count);
  const double peak = std::norm(series[r0]);
  EXPECT_GT(peak / noise_est, from_db(6.0));  // ≥6 dB post-compression SNR
}

TEST(PulseCompress, WholeBeamArrayCompression) {
  RadarParams p = RadarParams::test_small();
  PulseCompressor pc(p);
  BeamArray beams(2, p.beams, p.ranges);
  const auto& code = pc.code();
  for (std::size_t k = 0; k < code.size(); ++k) beams.at(1, 0, 30 + k) = code[k];
  pc.compress(beams);
  EXPECT_NEAR(std::abs(beams.at(1, 0, 30)), 1.0, 1e-4);
  // Untouched (bin 0) rows stay zero.
  EXPECT_NEAR(std::abs(beams.at(0, 0, 30)), 0.0, 1e-6);
}

TEST(PulseCompress, BatchedCompressMatchesPerSeriesReference) {
  RadarParams p = RadarParams::test_small();
  PulseCompressor pc(p);
  Rng rng(77);
  BeamArray beams(p.doppler_bins(), p.beams, p.ranges);
  for (auto& v : beams.flat()) v = rng.complex_normal();

  // Reference: the naive circular correlation, one series at a time.
  std::vector<std::vector<cdouble>> expected;
  for (std::size_t b = 0; b < beams.bins(); ++b) {
    for (std::size_t beam = 0; beam < beams.beams(); ++beam) {
      expected.push_back(naive_compress(pc.code(), beams.range_series(b, beam)));
    }
  }

  pc.compress(beams);  // batched fused path
  std::size_t idx = 0;
  for (std::size_t b = 0; b < beams.bins(); ++b) {
    for (std::size_t beam = 0; beam < beams.beams(); ++beam, ++idx) {
      const auto row = beams.range_series(b, beam);
      for (std::size_t r = 0; r < p.ranges; ++r) {
        EXPECT_NEAR(std::abs(cdouble(row[r].real(), row[r].imag()) - expected[idx][r]),
                    0.0, 1e-4)
            << "bin " << b << " beam " << beam << " range " << r;
      }
    }
  }
}

TEST(PulseCompress, RejectsWrongLengths) {
  const RadarParams p = RadarParams::test_small();
  PulseCompressor pc(p);
  BeamArray shorter(1, 1, p.ranges - 1);
  EXPECT_THROW(pc.compress(shorter), PreconditionError);
  BeamArray longer(1, 1, p.ranges + 1);
  EXPECT_THROW(pc.compress(longer), PreconditionError);
}

// ------------------------------------------------------------------ cfar --

TEST(Cfar, ThresholdScaleMatchesFormula) {
  const RadarParams p = RadarParams::test_small();
  CfarDetector cfar(p);
  const double t = 2.0 * static_cast<double>(p.cfar_training);
  EXPECT_NEAR(cfar.threshold_scale(), t * (std::pow(p.cfar_pfa, -1.0 / t) - 1.0), 1e-9);
}

TEST(Cfar, StrongSpikeIsDetected) {
  const RadarParams p = RadarParams::test_small();
  CfarDetector cfar(p);
  Rng rng(13);
  std::vector<cfloat> series(p.ranges);
  for (auto& v : series) v = rng.complex_normal();
  series[77] = {100.0f, 0.0f};
  const auto hits = cfar.detect_series(series);
  EXPECT_NE(std::find(hits.begin(), hits.end(), 77u), hits.end());
}

TEST(Cfar, FalseAlarmRateIsNearPfa) {
  RadarParams p = RadarParams::test_small();
  p.ranges = 4096;
  p.cfar_pfa = 1e-2;
  CfarDetector cfar(p);
  Rng rng(17);
  std::size_t alarms = 0, cells = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<cfloat> series(p.ranges);
    for (auto& v : series) v = rng.complex_normal();
    alarms += cfar.detect_series(series).size();
    cells += p.ranges;
  }
  const double rate = static_cast<double>(alarms) / static_cast<double>(cells);
  EXPECT_GT(rate, 0.2 * p.cfar_pfa);
  EXPECT_LT(rate, 5.0 * p.cfar_pfa);
}

TEST(Cfar, GuardCellsProtectSpreadTargets) {
  // Energy adjacent to the cell under test sits in guard cells, not in the
  // noise estimate — a 2-cell-wide return must still be detected.
  const RadarParams p = RadarParams::test_small();
  CfarDetector cfar(p);
  std::vector<cfloat> series(p.ranges, cfloat{0.01f, 0.0f});
  series[50] = {10.0f, 0.0f};
  series[51] = {10.0f, 0.0f};  // within the guard window of cell 50
  const auto hits = cfar.detect_series(series);
  EXPECT_NE(std::find(hits.begin(), hits.end(), 50u), hits.end());
  EXPECT_NE(std::find(hits.begin(), hits.end(), 51u), hits.end());
}

TEST(Cfar, EdgeCellsUseOneSidedWindow) {
  const RadarParams p = RadarParams::test_small();
  CfarDetector cfar(p);
  std::vector<cfloat> series(p.ranges, cfloat{0.1f, 0.0f});
  series[0] = {50.0f, 0.0f};
  series[p.ranges - 1] = {50.0f, 0.0f};
  const auto hits = cfar.detect_series(series);
  EXPECT_NE(std::find(hits.begin(), hits.end(), 0u), hits.end());
  EXPECT_NE(std::find(hits.begin(), hits.end(), p.ranges - 1), hits.end());
}

TEST(Cfar, DetectFillsReportFields) {
  const RadarParams p = RadarParams::test_small();
  CfarDetector cfar(p);
  BeamArray beams(2, p.beams, p.ranges);
  beams.at(1, 1, 60) = {30.0f, 0.0f};
  for (std::size_t r = 0; r < p.ranges; ++r) {
    if (r != 60) beams.at(1, 1, r) = {0.05f, 0.0f};
  }
  const std::vector<std::size_t> bin_ids{3, 9};
  const auto dets = cfar.detect(beams, bin_ids);
  ASSERT_FALSE(dets.empty());
  bool found = false;
  for (const auto& d : dets) {
    if (d.range == 60 && d.bin == 9 && d.beam == 1) {
      found = true;
      EXPECT_GT(d.power, d.threshold);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cfar, RejectsMismatchedBinIds) {
  const RadarParams p = RadarParams::test_small();
  CfarDetector cfar(p);
  BeamArray beams(2, p.beams, p.ranges);
  const std::vector<std::size_t> ids{1};
  EXPECT_THROW(cfar.detect(beams, ids), PreconditionError);
}

// -------------------------------------------------------------- workload --

TEST(Workload, HardTasksOutweighEasyPerBin) {
  const WorkloadModel wm(RadarParams::test_small());
  const RadarParams& p = wm.params();
  const double easy_per_bin =
      wm.weights_easy().flops / static_cast<double>(p.easy_bin_count());
  const double hard_per_bin =
      wm.weights_hard().flops / static_cast<double>(p.hard_bin_count());
  EXPECT_GT(hard_per_bin, 3.5 * easy_per_bin);  // ~4x from dof^2 covariance
  const double ebf = wm.beamform_easy().flops / static_cast<double>(p.easy_bin_count());
  const double hbf = wm.beamform_hard().flops / static_cast<double>(p.hard_bin_count());
  EXPECT_NEAR(hbf / ebf, 2.0, 1e-9);  // dof doubles
}

TEST(Workload, CombinedTaskSumsFlopsButDropsIntermediateBytes) {
  const WorkloadModel wm(RadarParams::test_small());
  const auto pc = wm.pulse_compression();
  const auto cf = wm.cfar();
  const auto both = wm.pulse_compression_cfar();
  EXPECT_DOUBLE_EQ(both.flops, pc.flops + cf.flops);
  EXPECT_DOUBLE_EQ(both.in_bytes, pc.in_bytes);
  EXPECT_LT(both.out_bytes, pc.out_bytes);  // no intermediate array shipped
}

TEST(Workload, VolumesAreConsistentAcrossTheChain) {
  const WorkloadModel wm(RadarParams::test_small());
  EXPECT_DOUBLE_EQ(wm.parallel_read().in_bytes, wm.cpi_file_bytes());
  EXPECT_DOUBLE_EQ(wm.parallel_read().out_bytes, wm.doppler().in_bytes);
  // PC receives what easy+hard beamforming emit.
  EXPECT_DOUBLE_EQ(wm.pulse_compression().in_bytes,
                   wm.beamform_easy().out_bytes + wm.beamform_hard().out_bytes);
  EXPECT_DOUBLE_EQ(wm.cfar().in_bytes, wm.pulse_compression().out_bytes);
}

TEST(Workload, AllPositive) {
  const WorkloadModel wm(RadarParams{});
  for (const auto& tw :
       {wm.doppler(), wm.weights_easy(), wm.weights_hard(), wm.beamform_easy(),
        wm.beamform_hard(), wm.pulse_compression(), wm.cfar(),
        wm.pulse_compression_cfar()}) {
    EXPECT_GT(tw.flops, 0.0);
    EXPECT_GT(tw.in_bytes, 0.0);
    EXPECT_GT(tw.out_bytes, 0.0);
  }
}

// ---------------------------------------------------------------- cube io --

class CubeIoTest : public ::testing::Test {
 protected:
  CubeIoTest() {
    root_ = fs::temp_directory_path() /
            ("pstap_cubeio_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~CubeIoTest() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  static std::atomic<int> counter_;
  fs::path root_;
};
std::atomic<int> CubeIoTest::counter_{0};

TEST_F(CubeIoTest, FullCubeRoundTrip) {
  const RadarParams p = RadarParams::test_small();
  pfs::StripedFileSystem pfs_fs(root_, pfs::paragon_pfs(4));
  SceneGenerator gen(p, SceneConfig{}, 7);
  const DataCube cube = gen.generate(0);
  write_cpi(pfs_fs, "cpi0", cube);
  EXPECT_EQ(pfs_fs.file_size("cpi0"), cpi_file_bytes(p));
  pfs::StripedFile f = pfs_fs.open("cpi0");
  const DataCube back = read_cpi_slab(f, p, 0, p.ranges);
  EXPECT_TRUE(std::equal(cube.flat().begin(), cube.flat().end(), back.flat().begin()));
}

TEST_F(CubeIoTest, SlabReadsMatchFullCube) {
  const RadarParams p = RadarParams::test_small();
  pfs::StripedFileSystem pfs_fs(root_, pfs::paragon_pfs(4));
  SceneGenerator gen(p, SceneConfig{}, 8);
  const DataCube cube = gen.generate(1);
  write_cpi(pfs_fs, "cpi1", cube);
  pfs::StripedFile f = pfs_fs.open("cpi1");
  const std::size_t r0 = 32, r1 = 96;
  const DataCube slab = read_cpi_slab(f, p, r0, r1);
  EXPECT_EQ(slab.ranges(), r1 - r0);
  for (std::size_t c = 0; c < p.channels; ++c)
    for (std::size_t pp = 0; pp < p.pulses; ++pp)
      for (std::size_t r = r0; r < r1; ++r)
        ASSERT_EQ(slab.at(c, pp, r - r0), cube.at(c, pp, r));
}

TEST_F(CubeIoTest, AsyncSlabReadMatchesSync) {
  const RadarParams p = RadarParams::test_small();
  pfs::StripedFileSystem pfs_fs(root_, pfs::paragon_pfs(4));
  SceneGenerator gen(p, SceneConfig{}, 9);
  write_cpi(pfs_fs, "cpi2", gen.generate(2));
  pfs::StripedFile f = pfs_fs.open("cpi2");
  const std::size_t r0 = 0, r1 = 64;
  const DataCube sync_cube = read_cpi_slab(f, p, r0, r1);
  std::vector<cfloat> raw((r1 - r0) * p.pulses * p.channels);
  pfs::IoRequest req = start_read_cpi_slab(f, p, r0, r1, raw);
  req.wait();
  const DataCube async_cube = unpack_slab(p, r0, r1, raw);
  EXPECT_TRUE(std::equal(sync_cube.flat().begin(), sync_cube.flat().end(),
                         async_cube.flat().begin()));
}

TEST_F(CubeIoTest, StagedWritesReuseOneBufferInBothLayouts) {
  const RadarParams p = RadarParams::test_small();
  pfs::StripedFileSystem pfs_fs(root_, pfs::paragon_pfs(4));
  const SceneGenerator gen(p, SceneConfig{}, 10);
  std::vector<cfloat> staging(p.cube_samples(),
                              cfloat{std::numeric_limits<float>::quiet_NaN(), 0.0f});
  DataCube cube(p.channels, p.pulses, p.ranges);
  for (const FileLayout layout : {FileLayout::kRangeMajor, FileLayout::kPulseMajor}) {
    for (std::uint64_t cpi = 0; cpi < 2; ++cpi) {
      gen.generate_into(cpi, cube);
      const std::string name = "staged" + std::to_string(cpi);
      write_cpi(pfs_fs, name, cube, layout, staging);
      pfs::StripedFile f = pfs_fs.open(name);
      const DataCube back = read_cpi_slab(f, p, 0, p.ranges, layout);
      EXPECT_TRUE(same_bytes(back.flat(), cube.flat())) << "cpi " << cpi;
    }
  }
  std::vector<cfloat> short_staging(p.cube_samples() - 1);
  EXPECT_THROW(write_cpi(pfs_fs, "bad", cube, FileLayout::kRangeMajor, short_staging),
               PreconditionError);
}

TEST(CubeIoNames, RoundRobinCyclesThroughFourFiles) {
  EXPECT_EQ(round_robin_name(0), "cpi_rr0");
  EXPECT_EQ(round_robin_name(3), "cpi_rr3");
  EXPECT_EQ(round_robin_name(4), "cpi_rr0");
  EXPECT_EQ(round_robin_name(7, 2), "cpi_rr1");
}

// ------------------------------------------------------- full chain (e2e) --

TEST(StapChain, DetectsInjectedTargetsEndToEnd) {
  RadarParams p = RadarParams::test_small();
  p.beams = 3;
  SceneConfig cfg;
  cfg.cnr_db = 40.0;
  // One easy-Doppler target at boresight, one hard-Doppler target off-axis.
  // The hard target sits at Doppler bin 1 where the clutter ridge is near
  // +30°; placing the target at -20° keeps it outside the ridge direction.
  const Target easy_target{40, 8.0, 0.0, 18.0};
  const Target hard_target{90, 1.0, -0.35, 25.0};
  cfg.targets = {easy_target, hard_target};
  SceneGenerator gen(p, cfg, 21);

  DopplerFilter filt(p);
  const DopplerOutput prev = filt.process(gen.generate(0));  // weight training
  const DopplerOutput cur = filt.process(gen.generate(1));   // detection CPI

  WeightComputer wc_easy(p, prev.easy_bin_ids, p.easy_dof());
  WeightComputer wc_hard(p, prev.hard_bin_ids, p.hard_dof());
  const WeightSet w_easy = wc_easy.compute(prev.easy);
  const WeightSet w_hard = wc_hard.compute(prev.hard);

  Beamformer bf(p);
  BeamArray y_easy = bf.apply(cur.easy, w_easy);
  BeamArray y_hard = bf.apply(cur.hard, w_hard);

  PulseCompressor pc(p);
  pc.compress(y_easy);
  pc.compress(y_hard);

  CfarDetector cfar(p);
  const auto dets_easy = cfar.detect(y_easy, cur.easy_bin_ids);
  const auto dets_hard = cfar.detect(y_hard, cur.hard_bin_ids);

  const auto has_detection = [](const std::vector<Detection>& dets,
                                const Target& t) {
    for (const auto& d : dets) {
      if (std::abs(static_cast<double>(d.range) - static_cast<double>(t.range)) <= 1 &&
          std::abs(static_cast<double>(d.bin) - t.doppler_bin) <= 1) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_detection(dets_easy, easy_target)) << "easy target missed";
  EXPECT_TRUE(has_detection(dets_hard, hard_target)) << "hard target missed";

  // Sanity: detections are sparse (not a wall of false alarms).
  const std::size_t total_cells =
      (cur.easy_bin_ids.size() + cur.hard_bin_ids.size()) * p.beams * p.ranges;
  EXPECT_LT(dets_easy.size() + dets_hard.size(), total_cells / 100);
}

// ------------------------------------------- GEMM kernel-layer contracts --

TEST(Weights, CholeskyWeightsMatchPreKernelScalarReference) {
  // Under the forced scalar backend, the cherk-based covariance + hoisted
  // steering weight path must reproduce the historical per-snapshot
  // her_update / inline-conversion loop bit-for-bit — for both the
  // spatial-only (easy) and staggered (hard) DOF layouts. Every vector
  // backend (FMA-contracted covariance on AVX2) must then land within
  // 1e-3 * max|w| of the scalar weights, on a default scene and on a
  // strong-clutter one.
  SimdBackendGuard guard;

  RadarParams p = RadarParams::test_small();
  p.beams = 3;

  const auto check = [&](const BinArray& spectra,
                         const std::vector<std::size_t>& bin_ids,
                         std::size_t dof) {
    simd::force_backend(simd::Backend::kScalar);
    WeightComputer wc(p, bin_ids, dof);
    const WeightSet got = wc.compute(spectra);
    const std::size_t training =
        std::min<std::size_t>(p.training_ranges, spectra.ranges());
    ASSERT_GE(training, dof);

    std::vector<cdouble> snap(dof), sd(dof), w(dof);
    for (std::size_t bi = 0; bi < bin_ids.size(); ++bi) {
      // Historical covariance: gate-by-gate snapshot gather + her_update.
      linalg::CMatrix<double> r(dof, dof);
      for (std::size_t t = 0; t < training; ++t) {
        for (std::size_t d = 0; d < dof; ++d) {
          const cfloat v = spectra.at(bi, d, t);
          snap[d] = {v.real(), v.imag()};
        }
        linalg::ref::her_update(r, snap, 1.0 / static_cast<double>(training));
      }
      double trace = 0.0;
      for (std::size_t d = 0; d < dof; ++d) trace += r(d, d).real();
      const double load =
          p.diagonal_loading * (trace / static_cast<double>(dof)) + 1e-12;
      for (std::size_t d = 0; d < dof; ++d) r(d, d) += load;

      linalg::CMatrix<double> l = r;
      const bool pd = linalg::cholesky_factor(l);
      ASSERT_TRUE(pd);

      for (std::size_t beam = 0; beam < p.beams; ++beam) {
        // Historical steering: rebuilt per (bin, beam), converted inline.
        const auto s = wc.steering(bin_ids[bi], beam);
        for (std::size_t d = 0; d < dof; ++d) {
          sd[d] = {s[d].real(), s[d].imag()};
          w[d] = sd[d];
        }
        linalg::cholesky_solve_inplace(l, std::span<cdouble>(w));
        cdouble denom{};
        for (std::size_t d = 0; d < dof; ++d) denom += std::conj(sd[d]) * w[d];
        const double mag = std::abs(denom);
        const cdouble scale = mag > 1e-30 ? 1.0 / denom : cdouble{1.0, 0.0};
        const auto got_w = got.at(bi, beam);
        for (std::size_t d = 0; d < dof; ++d) {
          const cdouble v = w[d] * scale;
          EXPECT_EQ(got_w[d].real(), static_cast<float>(v.real()))
              << "bin=" << bin_ids[bi] << " beam=" << beam << " d=" << d;
          EXPECT_EQ(got_w[d].imag(), static_cast<float>(v.imag()));
        }
      }
    }

    double max_w = 0;
    for (const auto& v : got.flat()) max_w = std::max(max_w, double(std::abs(v)));
    for (simd::Backend b : simd_backends()) {
      simd::force_backend(b);
      const WeightSet vec = wc.compute(spectra);
      for (std::size_t i = 0; i < got.flat().size(); ++i) {
        EXPECT_NEAR(std::abs(vec.flat()[i] - got.flat()[i]), 0.0, 1e-3 * max_w)
            << simd::backend_name(b) << " dof=" << dof << " weight " << i;
      }
    }
  };

  for (const double cnr_db : {SceneConfig{}.cnr_db, 45.0}) {
    simd::force_backend(simd::Backend::kScalar);
    SceneConfig cfg;
    cfg.cnr_db = cnr_db;
    SceneGenerator gen(p, cfg, 33);
    DopplerFilter filt(p);
    const DopplerOutput out = filt.process(gen.generate(0));
    check(out.easy, out.easy_bin_ids, p.easy_dof());
    check(out.hard, out.hard_bin_ids, p.hard_dof());
  }
}

TEST(StapChain, CfarDetectionsIdenticalAcrossSimdBackends) {
  // The operational contract: running the full chain — Doppler, adaptive
  // weights (cherk + Cholesky), GEMM beamform, pulse compression, CFAR —
  // under each SIMD backend yields the same detection cells. Powers differ
  // at FMA/reduction tolerance upstream, but no detection may appear or
  // vanish when the backend changes.
  SimdBackendGuard guard;
  RadarParams p = RadarParams::test_small();
  p.beams = 3;
  SceneConfig cfg;
  cfg.cnr_db = 40.0;
  const Target easy_target{40, 8.0, 0.0, 18.0};
  const Target hard_target{90, 1.0, -0.35, 25.0};
  cfg.targets = {easy_target, hard_target};

  struct Cell {
    std::size_t bin, beam, range;
    bool operator==(const Cell&) const = default;
  };
  const auto run_chain = [&]() {
    SceneGenerator gen(p, cfg, 21);
    DopplerFilter filt(p);
    const DopplerOutput prev = filt.process(gen.generate(0));
    const DopplerOutput cur = filt.process(gen.generate(1));
    WeightComputer wc_easy(p, prev.easy_bin_ids, p.easy_dof());
    WeightComputer wc_hard(p, prev.hard_bin_ids, p.hard_dof());
    Beamformer bf(p);
    BeamArray y_easy = bf.apply(cur.easy, wc_easy.compute(prev.easy));
    BeamArray y_hard = bf.apply(cur.hard, wc_hard.compute(prev.hard));
    PulseCompressor pc(p);
    pc.compress(y_easy);
    pc.compress(y_hard);
    CfarDetector cfar(p);
    std::vector<Cell> cells;
    for (const auto& d : cfar.detect(y_easy, cur.easy_bin_ids)) {
      cells.push_back({d.bin, d.beam, d.range});
    }
    for (const auto& d : cfar.detect(y_hard, cur.hard_bin_ids)) {
      cells.push_back({d.bin, d.beam, d.range});
    }
    return cells;
  };

  simd::force_backend(simd::Backend::kScalar);
  const std::vector<Cell> ref = run_chain();
  EXPECT_FALSE(ref.empty());

  for (simd::Backend b : simd_backends()) {
    simd::force_backend(b);
    const std::vector<Cell> got = run_chain();
    ASSERT_EQ(got.size(), ref.size()) << simd::backend_name(b);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].bin, ref[i].bin) << simd::backend_name(b) << " i=" << i;
      EXPECT_EQ(got[i].beam, ref[i].beam);
      EXPECT_EQ(got[i].range, ref[i].range);
    }
  }
}

}  // namespace
}  // namespace pstap::stap
