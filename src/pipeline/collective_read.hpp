// Two-phase collective I/O for CPI cubes.
//
// When the radar writes pulse-major files ([pulse][channel][range] — the
// natural ADC streaming order), every node's range slab is pulses*channels
// small strided file segments: a request-per-row pattern that hammers the
// I/O servers with tiny chunks. The classic remedy (Choudhary et al.,
// two-phase / data-sieving collective I/O) is to read the file in *its*
// layout — each node takes an equal contiguous run of (pulse, channel)
// rows with one large request — and then redistribute over the
// interconnect to the decomposition the computation wants.
//
// collective_read_slab() implements exactly that on the mp runtime and the
// striped file system. It fills the same raw slab, byte for byte, as
// stap::start_read_cpi_slab(file, ..., FileLayout::kPulseMajor) and a
// wait(), so DopplerFilter::process_into takes either one unchanged.
#pragma once

#include "common/retry.hpp"
#include "mp/comm.hpp"
#include "pfs/striped_file_system.hpp"
#include "stap/cube_io.hpp"

namespace pstap::pipeline {

/// The tag of collective_read_slab's redistribution messages.
inline constexpr int kCollectiveReadTag = 900;

/// Collectively read one pulse-major CPI file over the ranks of `group`.
/// Every rank must call with the same file and parameters; rank r fills
/// `raw` with Doppler range window r of group.size() (doppler_range_window
/// in pipeline/partition.hpp), an empty one too, in the pulse-major raw
/// slab layout: (pulse, channel) rows in p * channels + c order, each as
/// wide as the window (stap::slab_elements values in all). No other
/// traffic on `group` may use kCollectiveReadTag (the pipeline gives the
/// collective a subgroup of its own).
///
/// `retry` governs transient failures and per-attempt timeouts of the
/// phase-1 conforming read. When `degraded` is non-null, a rank whose read
/// fails for good zero-fills its file block and completes the exchange
/// (so no peer wedges); the flag is then agreed collectively — every rank
/// sets *degraded if ANY rank degraded. With degraded == nullptr the
/// exhausted error propagates on the failing rank (legacy behavior).
void collective_read_slab(mp::Comm& group, pfs::StripedFile& file,
                          const stap::RadarParams& params, std::span<cfloat> raw,
                          const RetryPolicy& retry = {}, bool* degraded = nullptr);

}  // namespace pstap::pipeline
