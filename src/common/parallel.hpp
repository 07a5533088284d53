// Fork-join over a few chunks of one bulk operation.
//
// The radar-side synthesis (scene noise, clutter GEMMs, the file-order
// pack) and the Doppler filter's range blocks split their work into chunks
// whose outputs are disjoint and whose bytes do not depend on the split.
// parallel_for runs them on short-lived threads; parallel_chunks sizes the
// split from a per-operation minimum work size, so a small operation stays
// on one chunk, run inline on the calling thread with no thread started.
#pragma once

#include <cstddef>
#include <functional>

namespace pstap {

/// Chunks for `work` units of one operation: one per `min_per_chunk`
/// units, at most one per CPU of the calling thread's affinity mask (and
/// per hardware thread), at least one.
std::size_t parallel_chunks(std::size_t work, std::size_t min_per_chunk);

/// Item range [begin, end) of chunk `i` of `chunks` over `n` items: the
/// chunks partition [0, n) in order and differ in size by at most one.
struct ChunkRange {
  std::size_t begin, end;
};
inline ChunkRange chunk_range(std::size_t n, std::size_t chunks, std::size_t i) {
  return {n * i / chunks, n * (i + 1) / chunks};
}

/// Call fn(i) for every chunk i in [0, chunks) (chunks >= 1): chunk 0 on
/// the calling thread, the others on one thread each, pinned to distinct
/// CPUs of the caller's affinity mask other than its own, each under the
/// caller's floating-point control state (FTZ/DAZ). Returns after
/// every chunk has finished; if any threw, rethrows the exception of the
/// lowest-numbered chunk that threw. chunks == 1 calls fn(0) inline and
/// starts no thread.
void parallel_for(std::size_t chunks, const std::function<void(std::size_t)>& fn);

}  // namespace pstap
