#include "pipeline/collective_read.hpp"

#include <algorithm>

#include "pfs/striped_file_system.hpp"
#include "pipeline/partition.hpp"

namespace pstap::pipeline {

using pstap::cfloat;

stap::DataCube collective_read_slab(mp::Comm& group, pfs::StripedFile& file,
                                    const stap::RadarParams& params,
                                    int tag_base, const RetryPolicy& retry,
                                    bool* degraded) {
  PSTAP_REQUIRE(group.is_member(), "collective read from a non-member handle");
  const int nranks = group.size();
  const int me = group.rank();
  const std::size_t rows_total = params.pulses * params.channels;

  // Phase 1: conforming read. Rank r reads the r-th contiguous block of
  // (pulse, channel) rows — one large sequential request in file order.
  const BlockPartition row_part(rows_total, static_cast<std::size_t>(nranks));
  const std::size_t row_lo = row_part.begin(static_cast<std::size_t>(me));
  const std::size_t row_hi = row_part.end(static_cast<std::size_t>(me));
  std::vector<cfloat> mine((row_hi - row_lo) * params.ranges);
  int my_degraded = 0;
  if (!mine.empty()) {
    try {
      with_retry(retry, "collective_read_slab(" + file.name() + ")", [&] {
        pfs::IoRequest req = file.iread_values<cfloat>(
            static_cast<std::uint64_t>(row_lo) * params.ranges * sizeof(cfloat),
            std::span<cfloat>(mine));
        pfs::wait_with_timeout(req, retry.attempt_timeout,
                               "collective_read_slab(" + file.name() + ")");
      });
    } catch (const IoError&) {
      if (degraded == nullptr) throw;
      // Degrade: peers are already committed to the exchange, so zero-fill
      // this rank's file block and keep the collective moving. The vector
      // is value-initialized; an aborted partial transfer may have written
      // a prefix, so clear it back to zero.
      std::fill(mine.begin(), mine.end(), cfloat{});
      my_degraded = 1;
    }
  }

  // Phase 2: redistribute. For each destination rank, slice my rows down to
  // its range window and ship one message; likewise receive from everyone.
  const BlockPartition range_part(params.ranges, static_cast<std::size_t>(nranks));
  const int tag = tag_base;
  std::vector<cfloat> buf;
  for (int dest = 0; dest < nranks; ++dest) {
    const std::size_t r_lo = range_part.begin(static_cast<std::size_t>(dest));
    const std::size_t r_hi = range_part.end(static_cast<std::size_t>(dest));
    if (r_lo >= r_hi || row_lo >= row_hi) continue;
    buf.clear();
    buf.reserve((row_hi - row_lo) * (r_hi - r_lo));
    for (std::size_t row = row_lo; row < row_hi; ++row) {
      const auto series =
          std::span<const cfloat>(mine).subspan((row - row_lo) * params.ranges,
                                                params.ranges);
      buf.insert(buf.end(), series.begin() + r_lo, series.begin() + r_hi);
    }
    group.send<cfloat>(dest, tag, buf);
  }

  const std::size_t my_r_lo = range_part.begin(static_cast<std::size_t>(me));
  const std::size_t my_r_hi = range_part.end(static_cast<std::size_t>(me));
  stap::DataCube cube(params.channels, params.pulses,
                      my_r_hi > my_r_lo ? my_r_hi - my_r_lo : 0);
  for (int src = 0; src < nranks; ++src) {
    const std::size_t s_lo = row_part.begin(static_cast<std::size_t>(src));
    const std::size_t s_hi = row_part.end(static_cast<std::size_t>(src));
    if (s_lo >= s_hi || my_r_lo >= my_r_hi) continue;
    const auto msg = group.recv_vector<cfloat>(src, tag);
    PSTAP_CHECK(msg.size() == (s_hi - s_lo) * (my_r_hi - my_r_lo),
                "collective exchange size mismatch");
    std::size_t idx = 0;
    for (std::size_t row = s_lo; row < s_hi; ++row) {
      const std::size_t p = row / params.channels;
      const std::size_t c = row % params.channels;
      auto dst = cube.range_series(c, p);
      for (std::size_t r = 0; r < dst.size(); ++r) dst[r] = msg[idx++];
    }
  }

  // Degradation is a collective property: a zero-filled file block landed
  // in EVERY rank's slab, so all ranks must agree the CPI is tainted.
  if (degraded != nullptr) {
    int any = 0;
    group.allreduce_sum(std::span<const int>(&my_degraded, 1),
                        std::span<int>(&any, 1));
    *degraded = any != 0;
  }
  return cube;
}

}  // namespace pstap::pipeline
