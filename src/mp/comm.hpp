// Communicator: the rank-facing API of the mp runtime.
//
// Mirrors the message-passing model the paper's STAP code used on the
// Paragon (NX) and SP (MPL/MPI), cut to what the pipeline uses:
// zero-copy point-to-point sends of Buffer handles (send_buffer,
// send_stream) and receives matched exactly on (source, tag) (recv_buffer,
// recv_into, probe), one collective (allreduce_sum, the Doppler nodes'
// agreement on whether a collectively read CPI was degraded) and explicit
// sub-communicators for per-task node groups. Typed spans travel as
// Buffer::adopt(pack(span)) and come back with unpack/unpack_vector
// (mp/message.hpp).
//
// Ranks are threads (see mp::World). Sends are buffered: the payload handle
// is deposited in the destination mailbox immediately, so `send_buffer`
// never deadlocks against an unposted receive — matching the M_ASYNC-style
// semantics the paper relies on. The one exception is `send_stream`, the
// pipeline's CPI stream send: it blocks while kStreamDepth envelopes of
// its (source, tag) stream are still queued at the destination, so a fast
// stage cannot pile CPIs up in a slow stage's mailbox. allreduce_sum and
// every other send stay buffered.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mp/mailbox.hpp"
#include "mp/message.hpp"

namespace pstap::mp {

class World;

/// Envelopes one (communicator, source, tag) stream may hold queued at its
/// destination before send_stream blocks. It caps how many CPIs a fast
/// stage can park in a slow stage's mailbox, and so peak memory; DESIGN.md
/// §9 gives the measurements behind four.
inline constexpr std::size_t kStreamDepth = 4;

/// A group of ranks with private message context.
///
/// Copyable (copies share the group and context — like an MPI communicator
/// handle). Not thread-safe: each rank owns its Comm objects.
class Comm {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept { return static_cast<int>(group_.size()); }

  // ------------------------------------------------------------- raw p2p --

  /// Zero-copy send: takes ownership of the payload handle and deposits it
  /// in the destination mailbox — no byte is copied at any point. This is
  /// the hot-path primitive; pair it with BufferPool::acquire so steady
  /// state does no heap allocation either.
  void send_buffer(int dest, int tag, Buffer payload);

  /// Bounded zero-copy send for a pipeline stream: as send_buffer, but
  /// blocks while the destination already holds kStreamDepth envelopes
  /// from this (communicator, rank, tag). The receiver taking one wakes it.
  /// A closed destination mailbox never blocks it (the envelope is still
  /// deposited), so an aborting run unwinds. Deadlock-free only when the
  /// receiver consumes each stream in order without first waiting on this
  /// sender's later messages — true of the pipeline's acyclic task graph.
  /// Each call that had to wait adds one to the obs counter
  /// "mp.stream_waits".
  void send_stream(int dest, int tag, Buffer payload);

  /// Zero-copy receive of the first message from `source` with `tag`
  /// (>= 0): the returned handle shares the sender's storage.
  Buffer recv_buffer(int source, int tag);

  /// Receive directly into a caller-provided slab (no intermediate vector):
  /// one memcpy from the matched payload into `out`. Sizes must match
  /// exactly.
  template <typename T>
  void recv_into(int source, int tag, std::span<T> out) {
    const Buffer buf = recv_buffer(source, tag);
    unpack<T>(buf.bytes(), out);
  }

  /// Nonblocking probe: payload size of the first matching message, if any.
  std::optional<std::size_t> probe(int source, int tag);

  // ------------------------------------------------------------ allreduce --

  /// Element-wise sum delivered to every rank. Every rank of the
  /// communicator must call it in the same program order. Rank 0 adds the
  /// contributions in rank order (out = in_0 + in_1 + ... + in_{n-1}) and
  /// sends that one result back, so every rank gets the same bits.
  template <typename T>
  void allreduce_sum(std::span<const T> in, std::span<T> out) {
    PSTAP_REQUIRE(is_member(), "allreduce_sum on a non-member communicator handle");
    PSTAP_REQUIRE(out.size() == in.size(), "allreduce_sum buffer size mismatch");
    const int t = next_internal_tag();
    if (rank_ != 0) {
      send_internal(0, t, Buffer::adopt(pack(in)));
      unpack<T>(recv_internal(0, t).bytes(), out);
      return;
    }
    std::copy(in.begin(), in.end(), out.begin());
    for (int r = 1; r < size(); ++r) {
      const Buffer part = recv_internal(r, t);
      const auto values = part.as_span<const T>();
      PSTAP_CHECK(values.size() == out.size(), "allreduce_sum contribution size mismatch");
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += values[i];
    }
    const Buffer sum = Buffer::adopt(pack(std::span<const T>(out)));
    for (int r = 1; r < size(); ++r) send_internal(r, t, sum);
  }

  // ------------------------------------------------------------ subgroup --

  /// Build a sub-communicator from an explicit list of parent ranks.
  /// Every rank of the parent must call with the same list in the same
  /// program order (no messages are exchanged, but the call sequence keeps
  /// context derivation aligned). Listed ranks are ordered as listed;
  /// unlisted ranks receive a non-member handle (is_member() == false).
  Comm subgroup(std::span<const int> parent_ranks);

  /// True if this rank belongs to the communicator (subgroup() returns
  /// non-member handles to ranks outside the list).
  bool is_member() const noexcept { return rank_ >= 0; }

 private:
  friend class World;
  Comm(World* world, std::vector<int> group, int rank, std::uint64_t context)
      : world_(world),
        group_(std::move(group)),
        rank_(rank),
        context_(context),
        shared_(std::make_shared<SharedState>()) {}

  /// Copies of a Comm held by the same rank share this state so
  /// allreduce_sum and subgroup() call counters stay aligned across ranks.
  struct SharedState {
    std::uint32_t collective_seq = 0;
    std::uint32_t derive_seq = 0;  // subgroup() call counter
  };

  /// Internal tags are negative, so no user receive (tag >= 0) can match
  /// them, and encode a per-comm sequence number so that back-to-back
  /// allreduce_sum calls cannot cross-match.
  int next_internal_tag() {
    const std::uint32_t seq = shared_->collective_seq++;
    return -1 - static_cast<int>(seq & 0x7FFFFFFFu);
  }

  Envelope user_envelope(int dest, int tag, Buffer payload);
  void send_internal(int dest, int tag, Buffer payload);
  Buffer recv_internal(int source, int tag);
  Mailbox& my_mailbox();

  World* world_ = nullptr;
  std::vector<int> group_;  // comm rank -> world rank
  int rank_ = 0;            // -1 for non-member handles
  std::uint64_t context_ = 0;
  std::shared_ptr<SharedState> shared_;
};

}  // namespace pstap::mp
