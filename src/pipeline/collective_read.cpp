#include "pipeline/collective_read.hpp"

#include <algorithm>

#include "pfs/striped_file_system.hpp"
#include "pipeline/partition.hpp"

namespace pstap::pipeline {

using pstap::cfloat;

void collective_read_slab(mp::Comm& group, pfs::StripedFile& file,
                          const stap::RadarParams& params, std::span<cfloat> raw,
                          const RetryPolicy& retry, bool* degraded) {
  PSTAP_REQUIRE(group.is_member(), "collective read from a non-member handle");
  const int nranks = group.size();
  const int me = group.rank();
  const std::size_t rows_total = params.pulses * params.channels;
  const auto window = [&](int rank) {
    return doppler_range_window(params.ranges, static_cast<std::size_t>(nranks),
                                static_cast<std::size_t>(rank));
  };
  const auto [my_r_lo, my_r_hi] = window(me);
  PSTAP_REQUIRE(raw.size() == stap::slab_elements(params, my_r_lo, my_r_hi),
                "raw slab buffer size mismatch");

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
  // its range window straight into one payload; likewise receive from
  // everyone.
  for (int dest = 0; dest < nranks; ++dest) {
    const auto [r_lo, r_hi] = window(dest);
    if (r_lo >= r_hi || row_lo >= row_hi) continue;
    mp::Buffer payload =
        mp::Buffer::allocate((row_hi - row_lo) * (r_hi - r_lo) * sizeof(cfloat));
    cfloat* dst = payload.as_span<cfloat>().data();
    for (std::size_t row = row_lo; row < row_hi; ++row) {
      const cfloat* series = mine.data() + (row - row_lo) * params.ranges;
      dst = std::copy(series + r_lo, series + r_hi, dst);
    }
    group.send_buffer(dest, kCollectiveReadTag, std::move(payload));
  }

  // Source rank s owns rows [s_lo, s_hi), and the slab holds each row's
  // window back to back in row order, so s's message lands as one run.
  const std::size_t width = my_r_hi - my_r_lo;
  for (int src = 0; src < nranks; ++src) {
    const std::size_t s_lo = row_part.begin(static_cast<std::size_t>(src));
    const std::size_t s_hi = row_part.end(static_cast<std::size_t>(src));
    if (s_lo >= s_hi || width == 0) continue;
    group.recv_into<cfloat>(src, kCollectiveReadTag,
                            raw.subspan(s_lo * width, (s_hi - s_lo) * width));
  }

  // Degradation is a collective property: a zero-filled file block landed
  // in EVERY rank's slab, so all ranks must agree the CPI is tainted.
  if (degraded != nullptr) {
    int any = 0;
    group.allreduce_sum(std::span<const int>(&my_degraded, 1),
                        std::span<int>(&any, 1));
    *degraded = any != 0;
  }
}

}  // namespace pstap::pipeline
