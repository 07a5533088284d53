// Communicator: the rank-facing API of the mp runtime.
//
// Mirrors the message-passing model the paper's STAP code used on the
// Paragon (NX) and SP (MPL/MPI): blocking and nonblocking point-to-point
// with tag matching, plus the collectives the pipeline needs (barrier,
// bcast, gather, reduce, allreduce, allgather, scatter) and communicator
// splitting for per-task node groups.
//
// Ranks are threads (see mp::World). Sends are buffered: the payload is
// copied into the destination mailbox immediately, so `send` never
// deadlocks against an unposted receive and `isend` completes instantly —
// matching the M_ASYNC-style semantics the paper relies on. The one
// exception is `send_stream`, the pipeline's CPI stream send: it blocks
// while kStreamDepth envelopes of its (source, tag) stream are still
// queued at the destination, so a fast stage cannot pile CPIs up in a slow
// stage's mailbox. Collectives and every other send stay buffered.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Metadata returned by receives.
struct RecvInfo {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

/// Handle for a nonblocking operation.
class Request {
 public:
  Request() = default;

  /// Block until the operation completes. Idempotent.
  void wait() {
    if (done_) return;
    if (poll_) poll_(/*block=*/true);
    done_ = true;
  }

  /// Nonblocking completion check.
  bool test() {
    if (done_) return true;
    if (!poll_ || poll_(/*block=*/false)) done_ = true;
    return done_;
  }

 private:
  friend class Comm;
  explicit Request(std::function<bool(bool)> poll) : poll_(std::move(poll)) {}
  static Request completed() { return Request(nullptr); }

  std::function<bool(bool)> poll_;  // returns true when complete
  bool done_ = false;
};

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

  /// Zero-copy receive: the returned handle shares the sender's storage.
  /// Matching and wildcards as recv_bytes.
  Buffer recv_buffer(int source, int tag, RecvInfo* info = nullptr);

  /// Receive directly into a caller-provided slab (no intermediate vector):
  /// one memcpy from the matched payload into `out`. Sizes must match
  /// exactly.
  template <typename T>
  void recv_into(int source, int tag, std::span<T> out, RecvInfo* info = nullptr) {
    const Buffer buf = recv_buffer(source, tag, info);
    unpack<T>(buf.bytes(), out);
  }

  /// Send a byte payload to `dest` with `tag` (>= 0). Buffered; returns
  /// as soon as the payload has been deposited. The vector is adopted, not
  /// copied (one Rep allocation; prefer send_buffer + a pool on hot paths).
  void send_bytes(int dest, int tag, std::vector<std::byte> payload);

  /// Blocking receive of the first message matching (source, tag);
  /// kAnySource / kAnyTag wildcards allowed. Moves the payload out when it
  /// was vector-backed and uniquely held; copies otherwise.
  std::vector<std::byte> recv_bytes(int source, int tag, RecvInfo* info = nullptr);

  /// Nonblocking probe: payload size of the first matching message, if any.
  std::optional<std::size_t> probe(int source, int tag);

  /// Blocking probe: wait until a matching message arrives, return its size
  /// without removing it.
  std::size_t probe_wait(int source, int tag);

  // ----------------------------------------------------------- typed p2p --

  template <typename T>
  void send(int dest, int tag, std::span<const T> values) {
    send_bytes(dest, tag, pack(values));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::span<const T>(&value, 1));
  }

  /// Receive into a caller-sized buffer; sizes must match exactly.
  /// (Alias of recv_into — lands bytes directly, no intermediate vector.)
  template <typename T>
  void recv(int source, int tag, std::span<T> out, RecvInfo* info = nullptr) {
    recv_into<T>(source, tag, out, info);
  }

  /// Receive into a newly allocated vector sized from the message.
  template <typename T>
  std::vector<T> recv_vector(int source, int tag, RecvInfo* info = nullptr) {
    return unpack_vector<T>(recv_bytes(source, tag, info));
  }

  template <typename T>
  T recv_value(int source, int tag, RecvInfo* info = nullptr) {
    T value{};
    recv(source, tag, std::span<T>(&value, 1), info);
    return value;
  }

  // ---------------------------------------------------------- nonblocking --

  /// Buffered nonblocking send — completes immediately (payload copied out).
  template <typename T>
  Request isend(int dest, int tag, std::span<const T> values) {
    send(dest, tag, values);
    return Request::completed();
  }

  /// Nonblocking receive: matching is deferred until wait()/test(). The
  /// output vector is filled upon completion and must outlive the request.
  template <typename T>
  Request irecv(int source, int tag, std::vector<T>* out) {
    return irecv_bytes_impl(source, tag, [out](Buffer payload) {
      *out = unpack_vector<T>(payload.bytes());
    });
  }

  // ----------------------------------------------------------- collectives --
  // All ranks of the communicator must call each collective in the same
  // program order; a per-comm sequence number isolates successive calls.

  /// Synchronize all ranks.
  void barrier();

  /// Broadcast `data` from `root` to everyone (all pass equal-sized spans).
  template <typename T>
  void bcast(std::span<T> data, int root) {
    const int t = next_internal_tag(kOpBcast);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r != root) send_internal(r, t, pack(std::span<const T>(data)));
      }
    } else {
      unpack<T>(recv_internal(root, t), data);
    }
  }

  /// Element-wise sum reduction to `root`. `out` is only written at root.
  template <typename T>
  void reduce_sum(std::span<const T> in, std::span<T> out, int root) {
    PSTAP_REQUIRE(rank_ != root || out.size() == in.size(),
                  "reduce_sum buffer size mismatch at root");
    const int t = next_internal_tag(kOpReduce);
    if (rank_ == root) {
      std::copy(in.begin(), in.end(), out.begin());
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        const auto part = unpack_vector<T>(recv_internal(r, t));
        PSTAP_CHECK(part.size() == out.size(), "reduce_sum contribution size mismatch");
        for (std::size_t i = 0; i < out.size(); ++i) out[i] += part[i];
      }
    } else {
      send_internal(root, t, pack(in));
    }
  }

  /// Sum reduction delivered to every rank.
  template <typename T>
  void allreduce_sum(std::span<const T> in, std::span<T> out) {
    PSTAP_REQUIRE(out.size() == in.size(), "allreduce_sum buffer size mismatch");
    reduce_sum(in, out, 0);
    bcast(out, 0);
  }

  /// Concatenate every rank's span at `root` (rank order). Non-root ranks
  /// receive an empty vector. Contributions may differ in length.
  template <typename T>
  std::vector<T> gather(std::span<const T> in, int root) {
    const int t = next_internal_tag(kOpGather);
    if (rank_ == root) {
      std::vector<T> all;
      for (int r = 0; r < size(); ++r) {
        if (r == root) {
          all.insert(all.end(), in.begin(), in.end());
        } else {
          const auto part = unpack_vector<T>(recv_internal(r, t));
          all.insert(all.end(), part.begin(), part.end());
        }
      }
      return all;
    }
    send_internal(root, t, pack(in));
    return {};
  }

  /// Gather delivered to every rank. Requires equal contribution sizes if
  /// callers index the result by rank (not enforced).
  template <typename T>
  std::vector<T> allgather(std::span<const T> in) {
    auto all = gather(in, 0);
    std::uint64_t n = all.size();
    bcast(std::span<std::uint64_t>(&n, 1), 0);
    all.resize(n);
    bcast(std::span<T>(all), 0);
    return all;
  }

  /// Scatter equal-sized chunks from root: chunk r goes to rank r.
  /// At root, `in` holds size()*chunk elements; everyone receives `out`
  /// of chunk elements.
  template <typename T>
  void scatter(std::span<const T> in, std::span<T> out, int root) {
    const int t = next_internal_tag(kOpScatter);
    const std::size_t chunk = out.size();
    if (rank_ == root) {
      PSTAP_REQUIRE(in.size() == chunk * static_cast<std::size_t>(size()),
                    "scatter input must be size()*chunk elements at root");
      for (int r = 0; r < size(); ++r) {
        const auto part = in.subspan(r * chunk, chunk);
        if (r == root) {
          std::copy(part.begin(), part.end(), out.begin());
        } else {
          send_internal(r, t, pack(part));
        }
      }
    } else {
      unpack<T>(recv_internal(root, t), out);
    }
  }

  // ---------------------------------------------------------------- split --

  /// Partition this communicator: ranks passing the same `color` form a new
  /// communicator, ordered by (key, parent rank). Collective. `color` must
  /// be >= 0 (there is no MPI_UNDEFINED; pass each rank a real color).
  Comm split(int color, int key);

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

  enum InternalOp : int {
    kOpBarrierArrive = 0,
    kOpBarrierRelease = 1,
    kOpBcast = 2,
    kOpReduce = 3,
    kOpGather = 4,
    kOpScatter = 5,
    kOpSplit = 6,
  };

  /// Copies of a Comm held by the same rank share this state so collective
  /// sequence numbers stay aligned across ranks.
  struct SharedState {
    std::uint32_t collective_seq = 0;
    std::uint32_t derive_seq = 0;  // split()/subgroup() call counter
  };

  /// Internal (negative) tags encode a per-comm sequence number so that
  /// back-to-back collectives cannot cross-match. Internal messages also
  /// travel on a shadow context (context_ | 1) so user wildcard receives
  /// can never steal them.
  int next_internal_tag(InternalOp op) {
    const std::uint32_t seq = shared_->collective_seq++;
    return -2 - static_cast<int>(((seq & 0xFFFFFFu) << 3) | static_cast<std::uint32_t>(op));
  }

  Envelope user_envelope(int dest, int tag, Buffer payload);
  void send_internal(int dest, int tag, std::vector<std::byte> payload);
  std::vector<std::byte> recv_internal(int source, int tag);
  Request irecv_bytes_impl(int source, int tag,
                           std::function<void(Buffer)> sink);
  Mailbox& my_mailbox();

  World* world_ = nullptr;
  std::vector<int> group_;  // comm rank -> world rank
  int rank_ = 0;            // -1 for non-member handles
  std::uint64_t context_ = 0;
  std::shared_ptr<SharedState> shared_;
};

}  // namespace pstap::mp
