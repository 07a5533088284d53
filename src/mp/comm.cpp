#include "mp/comm.hpp"

#include "common/fault.hpp"
#include "mp/world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pstap::mp {

namespace {

// Process-wide message-layer distributions (registry references are
// stable, so a single lookup each suffices). Sizes are bytes; waits are
// seconds spent blocked inside recv before a matching envelope arrived.
// `stream_waits` counts send_stream calls that found their stream full.
struct MpStats {
  obs::Histogram& send_bytes = obs::Registry::global().histogram("mp.send_bytes");
  obs::Histogram& recv_bytes = obs::Registry::global().histogram("mp.recv_bytes");
  obs::Histogram& recv_wait = obs::Registry::global().histogram("mp.recv_wait_s");
  obs::Counter& stream_waits = obs::Registry::global().counter("mp.stream_waits");
};

MpStats& mp_stats() {
  static MpStats stats;
  return stats;
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derive a child context id from its parent's.
std::uint64_t derive_context(std::uint64_t parent, std::uint64_t seq, std::uint64_t salt) {
  return mix64(parent ^ mix64(seq ^ mix64(salt + 0x1234567ULL)));
}

}  // namespace

Mailbox& Comm::my_mailbox() {
  PSTAP_REQUIRE(is_member(), "operation on a non-member communicator handle");
  return world_->mailbox(group_[static_cast<std::size_t>(rank_)]);
}

Envelope Comm::user_envelope(int dest, int tag, Buffer payload) {
  PSTAP_REQUIRE(is_member(), "send on a non-member communicator handle");
  PSTAP_REQUIRE(dest >= 0 && dest < size(), "send destination rank out of range");
  PSTAP_REQUIRE(tag >= 0, "user message tags must be >= 0");
  // Injection covers user point-to-point traffic only; allreduce_sum's
  // internal messages stay fault-free so the runtime's own agreement
  // cannot be wedged by a plan.
  fault::inject("mp.send");
  mp_stats().send_bytes.record(static_cast<double>(payload.size()));
  Envelope env;
  env.context = context_;
  env.source = rank_;
  env.tag = tag;
  env.payload = std::move(payload);
  return env;
}

void Comm::send_buffer(int dest, int tag, Buffer payload) {
  Envelope env = user_envelope(dest, tag, std::move(payload));
  world_->mailbox(group_[static_cast<std::size_t>(dest)]).push(std::move(env));
}

void Comm::send_stream(int dest, int tag, Buffer payload) {
  Envelope env = user_envelope(dest, tag, std::move(payload));
  if (world_->mailbox(group_[static_cast<std::size_t>(dest)])
          .push_bounded(std::move(env), kStreamDepth)) {
    mp_stats().stream_waits.add();
  }
}

Buffer Comm::recv_buffer(int source, int tag) {
  PSTAP_REQUIRE(source >= 0 && source < size(), "recv source rank out of range");
  PSTAP_REQUIRE(tag >= 0, "recv tag must be >= 0");
  fault::inject("mp.recv");
  const std::int64_t wait_start_ns = obs::trace_now_ns();
  Envelope env = my_mailbox().pop_matching(context_, source, tag);
  mp_stats().recv_wait.record(
      static_cast<double>(obs::trace_now_ns() - wait_start_ns) * 1e-9);
  mp_stats().recv_bytes.record(static_cast<double>(env.payload.size()));
  return std::move(env.payload);
}

std::optional<std::size_t> Comm::probe(int source, int tag) {
  PSTAP_REQUIRE(source >= 0 && source < size(), "probe source rank out of range");
  PSTAP_REQUIRE(tag >= 0, "probe tag must be >= 0");
  return my_mailbox().probe(context_, source, tag);
}

void Comm::send_internal(int dest, int tag, Buffer payload) {
  Envelope env;
  env.context = context_;
  env.source = rank_;
  env.tag = tag;
  env.payload = std::move(payload);
  world_->mailbox(group_[static_cast<std::size_t>(dest)]).push(std::move(env));
}

Buffer Comm::recv_internal(int source, int tag) {
  return my_mailbox().pop_matching(context_, source, tag).payload;
}

Comm Comm::subgroup(std::span<const int> parent_ranks) {
  PSTAP_REQUIRE(is_member(), "subgroup on a non-member communicator handle");
  PSTAP_REQUIRE(!parent_ranks.empty(), "subgroup needs at least one rank");
  const std::uint32_t seq = shared_->derive_seq++;

  std::uint64_t salt = 0x9e3779b97f4a7c15ULL;
  std::vector<int> group;
  group.reserve(parent_ranks.size());
  int new_rank = -1;
  for (std::size_t i = 0; i < parent_ranks.size(); ++i) {
    const int pr = parent_ranks[i];
    PSTAP_REQUIRE(pr >= 0 && pr < size(), "subgroup rank out of range");
    if (pr == rank_) new_rank = static_cast<int>(i);
    group.push_back(group_[static_cast<std::size_t>(pr)]);
    salt = mix64(salt ^ (static_cast<std::uint64_t>(pr) + i));
  }
  const std::uint64_t ctx = derive_context(context_, seq, salt);
  return Comm(world_, std::move(group), new_rank, ctx);
}

}  // namespace pstap::mp
