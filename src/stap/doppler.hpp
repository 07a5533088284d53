// Doppler filter processing (pipeline task 1).
//
// Forms two PRI-staggered sub-apertures of length M = pulses-1, windows and
// Doppler-transforms each, then routes bins: easy bins keep the stagger-0
// spectrum only (channels DOF); hard bins stack both staggers (2*channels
// DOF) for the adaptive clutter cancellation downstream.
//
// The transform is batched: blocks of adjacent range gates are gathered
// (with the window fused in) into SoA planes — both staggers as lanes of
// one plane — and run through FftPlan::transform_soa, so the radix stages
// vectorize across range gates instead of dispatching one strided FFT per
// (channel, range).
//
// The gather reads each block's range-contiguous pulse rows wherever they
// already are: in a DataCube, or in place in the raw slab buffer a pfs read
// filled (pulse-major files). A range-major slab has no such rows, so each
// block of it is first transposed into a small per-chunk tile; no
// whole-cube reorganisation sits between the read and the filter.
//
// A large call splits its range blocks into contiguous chunks and filters
// them on several cores (pstap::parallel_for), each chunk with its own
// workspace and into its own column windows of the output, so the bytes do
// not depend on the chunk count. A small call runs one chunk inline.
#pragma once

#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "fft/fft.hpp"
#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"

namespace pstap::stap {

/// Output of Doppler filtering for one CPI (or one range slab of it).
struct DopplerOutput {
  std::vector<std::size_t> easy_bin_ids;  ///< bins covered by `easy`
  std::vector<std::size_t> hard_bin_ids;  ///< bins covered by `hard`
  BinArray easy;  ///< [easy bin][channels][ranges]
  BinArray hard;  ///< [hard bin][2*channels][ranges]
};

class DopplerFilter {
 public:
  explicit DopplerFilter(const RadarParams& params);

  /// Doppler-process a cube (its range extent may be a slab of the full
  /// CPI when running data-parallel).
  DopplerOutput process(const DataCube& cube) const;

  /// Process into `out`. Arrays whose shapes already match are written in
  /// place, every element of them, so their prior contents do not matter:
  /// a caller may hand in fresh uninitialized (e.g. pooled) storage each
  /// call. Arrays of another shape are replaced by newly allocated ones.
  /// The range blocks run in `chunks` chunks (0: one per kMinChunkSamples
  /// input samples, at most one per CPU of the caller's affinity mask; in
  /// every case at most one per block); the bytes are the same for every
  /// chunk count. An output of kStreamMinBytes or more is written with
  /// streaming stores (it is not read back here), and every chunk fences
  /// its own before return, so either way `out` may be handed straight to
  /// another thread.
  /// Instances keep per-call workspaces: share one DopplerFilter per
  /// calling thread (its chunks' workers use workspaces of their own).
  void process_into(const DataCube& cube, DopplerOutput& out,
                    std::size_t chunks = 0) const;

  /// Process a raw slab of `ranges` gates straight from the buffer a slab
  /// read filled, in its file order (cube_io's start_read_cpi_slab layout:
  /// range-major [range][pulse][channel], or pulse-major rows in
  /// pulse * channels + channel order). Bit-identical to process_into on
  /// the same samples as a DataCube; `chunks` as there.
  void process_into(std::span<const cfloat> raw, std::size_t ranges,
                    FileLayout layout, DopplerOutput& out,
                    std::size_t chunks = 0) const;

  /// The Hann window applied across each sub-aperture.
  const std::vector<float>& window() const noexcept { return window_; }

  /// Outputs (easy plus hard bytes) from this size up are written with
  /// streaming stores; smaller ones stay in the cache for their reader,
  /// where plain stores are faster. The routing stores' measured crossover
  /// is near 2 MB on a host with 2 MB of L2 per core (EXPERIMENTS.md).
  static constexpr std::size_t kStreamMinBytes = std::size_t{2} << 20;

  /// Input samples (ranges x pulses x channels) per chunk: an input smaller
  /// than two of these is filtered on the calling thread alone, with no
  /// thread started (test_small's is). The paper geometry's 2^21 samples
  /// run in 3 chunks: on a 4-CPU host a fourth chunk gained 4 % in
  /// throughput but added about 30 % to CPI latency and 4 MB to peak RSS,
  /// since its worker shares a core with the downstream ranks
  /// (EXPERIMENTS.md).
  static constexpr std::size_t kMinChunkSamples = std::size_t{640} << 10;

  /// Range gates per filter block. Both staggers of R adjacent gates are
  /// lanes of one SoA transform (lane l < R is stagger 0 at gate r0 + l,
  /// lane R + l stagger 1). The Doppler FFTs are short (m = pulses - 1), so
  /// the block is kept wide: the planes stay small (m * 2R floats) while
  /// every SIMD call runs long enough to amortize its dispatch; 2R = 64
  /// lanes is 8 AVX2 iterations per radix row. The Doppler task's
  /// range windows are whole runs of these blocks (pipeline/partition.hpp).
  static constexpr std::size_t kRangesPerBlock = 32;

 private:
  struct BlockRows;

  // One chunk's transform workspace (grown once, then reused). Aligned so
  // the SIMD radix stages never split cache lines.
  struct Workspace {
    AlignedVector<float> re, im;  // SoA planes, M x 64 lanes
    fft::BatchScratch scratch;
    // One range block of a range-major raw slab, transposed into rows
    // (channels x pulses x block gates; made on first range-major use).
    DataCube tile;
  };

  template <typename RowsOf>
  void filter_blocks(std::size_t ranges, std::size_t chunks, bool tiled,
                     DopplerOutput& out, RowsOf rows_of) const;
  void filter_block(const BlockRows& rows, std::size_t r0, std::size_t R, bool stream,
                    Workspace& ws, DopplerOutput& out) const;

  RadarParams params_;
  fft::FftPlan plan_;            // length M transform
  std::vector<float> window_;    // length M

  // bin -> output slot maps (dense over the M-point grid; SIZE_MAX = not
  // in that set), precomputed once.
  std::vector<std::size_t> easy_slot_;
  std::vector<std::size_t> hard_slot_;

  // One workspace per chunk of the largest split so far, made on the
  // calling thread before the fork, so no worker allocates.
  mutable std::vector<Workspace> ws_;
};

}  // namespace pstap::stap
