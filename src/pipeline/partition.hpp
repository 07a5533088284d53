// Block partitioning of a 1-D index space (range gates, Doppler bins,
// bin/beam rows) over the nodes of a task — the data decomposition every
// pipeline task uses — and the Doppler task's range windows.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "stap/doppler.hpp"

namespace pstap::pipeline {

/// Even block partition of [0, count) into `parts` chunks; the first
/// (count % parts) chunks are one element longer.
class BlockPartition {
 public:
  BlockPartition(std::size_t count, std::size_t parts) : count_(count), parts_(parts) {
    PSTAP_REQUIRE(parts >= 1, "partition needs at least one part");
  }

  std::size_t count() const noexcept { return count_; }
  std::size_t parts() const noexcept { return parts_; }

  std::size_t begin(std::size_t part) const {
    PSTAP_REQUIRE(part < parts_, "part index out of range");
    const std::size_t base = count_ / parts_;
    const std::size_t extra = count_ % parts_;
    return part * base + std::min(part, extra);
  }

  std::size_t end(std::size_t part) const { return begin(part) + size(part); }

  std::size_t size(std::size_t part) const {
    PSTAP_REQUIRE(part < parts_, "part index out of range");
    const std::size_t base = count_ / parts_;
    const std::size_t extra = count_ % parts_;
    return base + (part < extra ? 1 : 0);
  }

  /// The part owning element `index`.
  std::size_t owner(std::size_t index) const {
    PSTAP_REQUIRE(index < count_, "element index out of range");
    const std::size_t base = count_ / parts_;
    const std::size_t extra = count_ % parts_;
    const std::size_t long_span = (base + 1) * extra;  // elements in long parts
    if (base == 0) return index;  // more parts than elements: 1 element each
    if (index < long_span) return index / (base + 1);
    return extra + (index - long_span) / base;
  }

 private:
  std::size_t count_;
  std::size_t parts_;
};

/// Range gates [lo, hi).
struct RangeWindow {
  std::size_t lo = 0, hi = 0;
  std::size_t size() const noexcept { return hi - lo; }
};

/// Doppler node `node`'s range window, of `nodes`: an even block partition
/// of the filter's blocks (stap::DopplerFilter::kRangesPerBlock gates), so
/// every window starts on a block boundary and only the one holding the
/// last gate can end off one. With more nodes than blocks the extra windows
/// are empty. Every range split of the Doppler task's input or output is
/// this one, so a window's filtered and beamformed bytes are those of the
/// same gates in a full-width call.
inline RangeWindow doppler_range_window(std::size_t ranges, std::size_t nodes,
                                        std::size_t node) {
  constexpr std::size_t kBlock = stap::DopplerFilter::kRangesPerBlock;
  const BlockPartition blocks((ranges + kBlock - 1) / kBlock, nodes);
  return {std::min(ranges, blocks.begin(node) * kBlock),
          std::min(ranges, blocks.end(node) * kBlock)};
}

}  // namespace pstap::pipeline
