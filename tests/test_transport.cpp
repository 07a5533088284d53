// Zero-copy transport tests: Buffer/BufferPool semantics, the
// send_buffer/recv_buffer/recv_into hot path, and the allocation-freedom
// the pooled path promises in steady state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/checkpoint.hpp"
#include "common/types.hpp"
#include "mp/world.hpp"

// ------------------------------------------------- allocation counting --
// Global operator new instrumented with a thread-local counter (same
// pattern as test_obs) so the steady-state send/recv path can be proven
// allocation-free. This test binary only.

namespace {
thread_local std::int64_t t_alloc_count = 0;
}  // namespace

// GCC pairs call sites against the replacement operators and warns that
// malloc-backed new is freed with free(); the pairing here is exactly
// new->malloc / delete->free, so the warning is a false positive.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pstap {
namespace {

std::vector<cfloat> test_payload(std::size_t n, float seed) {
  std::vector<cfloat> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = cfloat(seed + static_cast<float>(i), -static_cast<float>(i));
  }
  return v;
}

// ------------------------------------------------------------- Buffer --

TEST(Buffer, CopySharesBytesAndMoveSteals) {
  BufferPool pool;
  Buffer a = pool.acquire_elems<cfloat>(8);
  auto span = a.as_span<cfloat>();
  for (std::size_t i = 0; i < span.size(); ++i) span[i] = cfloat(float(i), 0);

  Buffer b = a;  // copy: same storage
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b.size(), a.size());

  const std::byte* raw = a.data();
  Buffer c = std::move(a);  // move: steals the handle
  EXPECT_EQ(c.data(), raw);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)

  // Storage survives until the last handle drops, then returns to the pool.
  b.reset();
  EXPECT_EQ(pool.free_count(), 0u);
  c.reset();
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(Buffer, AdoptWrapsVectorWithoutCopy) {
  std::vector<std::byte> bytes(64);
  const std::byte* raw = bytes.data();
  Buffer buf = Buffer::adopt(std::move(bytes));
  EXPECT_EQ(buf.data(), raw);
  EXPECT_EQ(buf.size(), 64u);
}

TEST(Buffer, SliceSharesStorageAndRefcount) {
  BufferPool pool;
  Buffer parent = pool.acquire_elems<cfloat>(16);
  auto all = parent.as_span<cfloat>();
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = cfloat(float(i), 1.0f);

  Buffer mid = parent.slice(4 * sizeof(cfloat), 8 * sizeof(cfloat));
  EXPECT_EQ(mid.data(), parent.data() + 4 * sizeof(cfloat)) << "a slice views, never copies";
  ASSERT_EQ(mid.size(), 8 * sizeof(cfloat));
  EXPECT_EQ(mid.as_span<const cfloat>()[0], cfloat(4.0f, 1.0f));
  // A slice of a slice offsets from its own range.
  Buffer inner = mid.slice(2 * sizeof(cfloat), sizeof(cfloat));
  EXPECT_EQ(inner.as_span<const cfloat>()[0], cfloat(6.0f, 1.0f));
  Buffer empty = parent.slice(parent.size(), 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(parent.slice(8 * sizeof(cfloat), 9 * sizeof(cfloat)), PreconditionError);
  EXPECT_THROW(mid.slice(0, mid.size() + 1), PreconditionError);

  // The storage goes back to the pool only after the parent and every
  // slice have dropped, in whatever order.
  parent.reset();
  mid.reset();
  empty.reset();
  EXPECT_EQ(pool.free_count(), 0u) << "a live slice must pin the storage";
  EXPECT_EQ(inner.as_span<const cfloat>()[0], cfloat(6.0f, 1.0f));
  inner.reset();
  EXPECT_EQ(pool.free_count(), 1u);

  // The recycled storage comes back as a whole-range handle.
  Buffer again = pool.acquire_elems<cfloat>(16);
  EXPECT_EQ(again.size(), 16 * sizeof(cfloat));
  EXPECT_EQ(pool.allocations(), 1u);
}

TEST(Buffer, SliceOfAdoptedVectorCopiesOutOnlyItsRange) {
  std::vector<std::byte> bytes(8);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = std::byte(i);
  Buffer whole = Buffer::adopt(std::move(bytes));
  Buffer tail = whole.slice(5, 3);
  whole.reset();
  const auto out = tail.bytes();
  EXPECT_EQ(std::vector<std::byte>(out.begin(), out.end()),
            (std::vector<std::byte>{std::byte{5}, std::byte{6}, std::byte{7}}));
}

TEST(Buffer, AllocateIsAlignedAndUnpooled) {
  Buffer buf = Buffer::allocate(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_TRUE(is_aligned(buf.data()));
  Buffer share = buf.slice(0, 10);
  buf.reset();
  EXPECT_EQ(share.size(), 10u);  // freed with its last handle, not pooled
}

// --------------------------------------------------------- BufferPool --

TEST(BufferPool, PooledBuffersAreCacheLineAligned) {
  BufferPool pool;
  for (const std::size_t n : std::vector<std::size_t>{1, 7, 64, 1000, 4096}) {
    Buffer buf = pool.acquire(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kDefaultAlignment, 0u)
        << "size " << n;
  }
}

TEST(BufferPool, AllocationsPlateauUnderSteadyReacquire) {
  BufferPool pool;
  { Buffer warm = pool.acquire(1024); }
  EXPECT_EQ(pool.allocations(), 1u);
  for (int i = 0; i < 100; ++i) {
    Buffer buf = pool.acquire(1024);
    EXPECT_EQ(buf.size(), 1024u);
  }
  EXPECT_EQ(pool.allocations(), 1u) << "re-acquiring a warm shape must not allocate";
  EXPECT_EQ(pool.reuses(), 100u);
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(BufferPool, FirstFitServesSmallerRequestFromLargerFreeBuffer) {
  BufferPool pool;
  { Buffer warm = pool.acquire(4096); }
  Buffer small = pool.acquire(100);
  EXPECT_EQ(small.size(), 100u);
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 1u);
}

// ---------------------------------------------------------- transport --

TEST(Transport, BufferRoundtripMatchesPackUnpack) {
  mp::World world(1);
  mp::Comm comm = world.make_comm(0);
  BufferPool pool;
  const auto values = test_payload(256, 3.0f);

  // Reference path: pack into an adopted vector, send, unpack into a vector.
  comm.send_buffer(0, 1, mp::Buffer::adopt(mp::pack(std::span<const cfloat>(values))));
  const auto via_pack = mp::unpack_vector<cfloat>(comm.recv_buffer(0, 1).bytes());

  // Zero-copy path: pooled payload, send_buffer, recv_buffer, typed view.
  mp::Buffer payload = pool.acquire_elems<cfloat>(values.size());
  std::copy(values.begin(), values.end(), payload.as_span<cfloat>().begin());
  comm.send_buffer(0, 1, std::move(payload));
  const mp::Buffer got = comm.recv_buffer(0, 1);
  const auto view = got.as_span<const cfloat>();

  ASSERT_EQ(view.size(), via_pack.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i], via_pack[i]) << "element " << i;
    EXPECT_EQ(view[i], values[i]) << "element " << i;
  }
}

TEST(Transport, RecvIntoLandsBytesInCallerSlab) {
  mp::World world(1);
  mp::Comm comm = world.make_comm(0);
  BufferPool pool;
  const auto values = test_payload(64, 9.0f);

  mp::Buffer payload = pool.acquire_elems<cfloat>(values.size());
  std::copy(values.begin(), values.end(), payload.as_span<cfloat>().begin());
  comm.send_buffer(0, 5, std::move(payload));

  std::vector<cfloat> slab(values.size());
  comm.recv_into<cfloat>(0, 5, slab);
  EXPECT_EQ(slab, values);
}

TEST(Transport, SteadyStateSendRecvIsAllocationFree) {
  mp::World world(1);
  mp::Comm comm = world.make_comm(0);
  BufferPool pool;
  constexpr std::size_t kElems = 512;
  std::vector<cfloat> slab(kElems);

  auto one_cpi = [&](float seed) {
    mp::Buffer payload = pool.acquire_elems<cfloat>(kElems);
    auto out = payload.as_span<cfloat>();
    for (std::size_t i = 0; i < kElems; ++i) out[i] = cfloat(seed, float(i));
    comm.send_buffer(0, 7, std::move(payload));
    comm.recv_into<cfloat>(0, 7, slab);
  };

  for (int i = 0; i < 4; ++i) one_cpi(float(i));  // warm the free list

  const std::uint64_t allocs_before = pool.allocations();
  const std::int64_t news_before = t_alloc_count;
  for (int i = 0; i < 64; ++i) one_cpi(float(100 + i));
  EXPECT_EQ(pool.allocations(), allocs_before)
      << "steady-state traffic must be served from the pool free list";
  EXPECT_EQ(t_alloc_count, news_before)
      << "steady-state send/recv must perform zero heap allocations";
  EXPECT_EQ(slab[0], cfloat(163.0f, 0.0f));  // last CPI actually arrived
}

TEST(Transport, CloseSemanticsUnchangedForMovedPayloads) {
  mp::World world(1);
  mp::Comm comm = world.make_comm(0);
  BufferPool pool;

  mp::Buffer payload = pool.acquire_elems<cfloat>(16);
  auto out = payload.as_span<cfloat>();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = cfloat(1.0f, 2.0f);
  comm.send_buffer(0, 3, std::move(payload));

  // Queued envelopes still drain after close; then receives unblock with
  // MailboxClosed — exactly the vector-payload contract.
  world.close_all_mailboxes();
  const mp::Buffer got = comm.recv_buffer(0, 3);
  EXPECT_EQ(got.as_span<const cfloat>()[0], cfloat(1.0f, 2.0f));
  EXPECT_THROW(comm.recv_buffer(0, 3), mp::MailboxClosed);
  world.reopen_all_mailboxes();
}

// -------------------------------------------------------- checkpointing --

TEST(Checkpoint, RingLogsSharedViewNotCopy) {
  BufferPool pool;
  ckpt::CheckpointRing ring;
  Buffer payload = pool.acquire_elems<cfloat>(32);
  const std::byte* raw = payload.data();
  ring.record_message(0, 1, 2, payload);  // shares the handle

  Buffer replayed;
  ASSERT_TRUE(ring.replay_message(0, 1, 2, replayed));
  EXPECT_EQ(replayed.data(), raw) << "replay must share storage, not copy bytes";

  // Eviction drops the ring's handle; once the caller's handles die too the
  // storage returns to the pool.
  ring.complete(0);
  payload.reset();
  replayed.reset();
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(Checkpoint, RingReplaysSliceBytes) {
  BufferPool pool;
  ckpt::CheckpointRing ring;
  Buffer parent = pool.acquire_elems<cfloat>(32);
  auto all = parent.as_span<cfloat>();
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = cfloat(float(i), -float(i));
  Buffer slice = parent.slice(10 * sizeof(cfloat), 12 * sizeof(cfloat));
  ring.record_message(3, 2, 1, slice);
  EXPECT_EQ(ring.bytes_held(), 12 * sizeof(cfloat)) << "the ring counts the slice";
  parent.reset();
  slice.reset();

  Buffer replayed;
  ASSERT_TRUE(ring.replay_message(3, 2, 1, replayed));
  const auto got = replayed.as_span<const cfloat>();
  ASSERT_EQ(got.size(), 12u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], cfloat(float(10 + i), -float(10 + i))) << "element " << i;
  }
  ring.complete(3);
  EXPECT_EQ(pool.free_count(), 0u) << "the replayed handle still pins the storage";
  replayed.reset();
  EXPECT_EQ(pool.free_count(), 1u);
}

}  // namespace
}  // namespace pstap
