// Tests for the TID manager (§3.5): slot claiming, generation stamping,
// lock-free inquiry outcomes, recycling, and concurrent stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "txn/tid_manager.h"

namespace ermia {
namespace {

TEST(TidManagerTest, BeginAssignsUniqueTids) {
  TidManager mgr;
  std::set<uint64_t> tids;
  std::vector<TxnContext*> ctxs;
  for (int i = 0; i < 100; ++i) {
    uint64_t tid = 0;
    TxnContext* ctx = mgr.Begin(&tid);
    EXPECT_TRUE(tids.insert(tid).second) << "duplicate TID";
    // The claim holds the GC horizon at 0 until the owner stores its begin.
    EXPECT_EQ(ctx->begin.load(), 0u);
    EXPECT_EQ(ctx->LoadState(), TxnState::kActive);
    ctxs.push_back(ctx);
  }
  for (auto* ctx : ctxs) {
    ctx->StoreState(TxnState::kAborted);
    mgr.Release(ctx);
  }
}

TEST(TidManagerTest, InquireInFlightThenCommitted) {
  TidManager mgr;
  uint64_t tid = 0;
  TxnContext* ctx = mgr.Begin(&tid);
  uint64_t cstamp = 0;
  EXPECT_EQ(mgr.Inquire(tid, &cstamp), TidManager::Outcome::kInFlight);

  ctx->cstamp.store(77);
  ctx->StoreState(TxnState::kCommitting);
  EXPECT_EQ(mgr.Inquire(tid, &cstamp), TidManager::Outcome::kInFlight);
  EXPECT_EQ(cstamp, 77u);  // committing exposes the stamp

  ctx->StoreState(TxnState::kCommitted);
  EXPECT_EQ(mgr.Inquire(tid, &cstamp), TidManager::Outcome::kCommitted);
  EXPECT_EQ(cstamp, 77u);
  mgr.Release(ctx);
}

TEST(TidManagerTest, InquireAborted) {
  TidManager mgr;
  uint64_t tid = 0;
  TxnContext* ctx = mgr.Begin(&tid);
  ctx->StoreState(TxnState::kAborted);
  EXPECT_EQ(mgr.Inquire(tid, nullptr), TidManager::Outcome::kAborted);
  mgr.Release(ctx);
}

TEST(TidManagerTest, StaleGenerationDetected) {
  TidManager mgr;
  // Claim and release enough transactions that some slot is reused.
  uint64_t first_tid = 0;
  TxnContext* ctx = mgr.Begin(&first_tid);
  ctx->StoreState(TxnState::kCommitted);
  mgr.Release(ctx);
  // Drive the clock all the way around the table so the slot recycles.
  uint64_t reused_tid = 0;
  TxnContext* reused = nullptr;
  for (uint32_t i = 0; i < TidManager::kSlots + 1; ++i) {
    uint64_t tid = 0;
    TxnContext* c = mgr.Begin(&tid);
    if (c == ctx) {
      reused = c;
      reused_tid = tid;
      break;
    }
    c->StoreState(TxnState::kCommitted);
    mgr.Release(c);
  }
  ASSERT_NE(reused, nullptr) << "slot never recycled";
  EXPECT_NE(reused_tid, first_tid);
  EXPECT_EQ(reused_tid % TidManager::kSlots, first_tid % TidManager::kSlots);
  // The old generation's TID now answers kStale.
  EXPECT_EQ(mgr.Inquire(first_tid, nullptr), TidManager::Outcome::kStale);
  reused->StoreState(TxnState::kCommitted);
  mgr.Release(reused);
}

TEST(TidManagerTest, OldestActiveBegin) {
  TidManager mgr;
  EXPECT_EQ(mgr.OldestActiveBegin(999), 999u);
  uint64_t t1 = 0, t2 = 0;
  TxnContext* a = mgr.Begin(&t1);
  TxnContext* b = mgr.Begin(&t2);
  EXPECT_EQ(mgr.OldestActiveBegin(999), 0u);  // claimed, begin not stored yet
  a->begin.store(100);
  b->begin.store(50);
  EXPECT_EQ(mgr.OldestActiveBegin(999), 50u);
  b->StoreState(TxnState::kAborted);
  mgr.Release(b);
  EXPECT_EQ(mgr.OldestActiveBegin(999), 100u);
  a->StoreState(TxnState::kCommitted);
  mgr.Release(a);
  EXPECT_EQ(mgr.OldestActiveBegin(999), 999u);
}

// Property: under concurrent begin/commit/inquire traffic, an inquiry never
// misattributes an outcome — a TID whose owner committed with stamp S either
// reports kCommitted with S or kStale, never a different stamp.
TEST(TidManagerTest, ConcurrentInquiryNeverLies) {
  TidManager mgr;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  // Writers continuously run transactions whose cstamp is derived from the
  // TID, so readers can verify the association.
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      while (!stop.load()) {
        uint64_t tid = 0;
        TxnContext* ctx = mgr.Begin(&tid);
        ctx->cstamp.store(tid * 2 + 1);
        ctx->StoreState(TxnState::kCommitting);
        ctx->StoreState(TxnState::kCommitted);
        mgr.Release(ctx);
      }
    });
  }
  std::vector<std::thread> readers;
  std::atomic<uint64_t> last_tid{1};
  readers.emplace_back([&] {
    FastRandom rng(7);
    while (!stop.load()) {
      const uint64_t tid = last_tid.load() + rng.UniformU64(0, 64);
      uint64_t cstamp = 0;
      auto outcome = mgr.Inquire(tid, &cstamp);
      if (outcome == TidManager::Outcome::kCommitted && cstamp != 0 &&
          cstamp != tid * 2 + 1) {
        errors.fetch_add(1);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
}

}  // namespace
}  // namespace ermia
