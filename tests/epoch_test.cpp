// Tests for the three-epoch resource manager (§3.4): enter/exit/quiesce
// semantics, the reclamation boundary, deferred cleanups, straggler handling,
// and concurrent stress.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/spin_latch.h"
#include "common/sysconf.h"
#include "epoch/epoch_manager.h"

namespace ermia {
namespace {

struct RegistryGuard {
  ~RegistryGuard() { ThreadRegistry::Deregister(); }
};

TEST(EpochTest, AdvanceIsMonotonic) {
  EpochManager mgr;
  const Epoch e0 = mgr.current();
  EXPECT_EQ(mgr.Advance(), e0 + 1);
  EXPECT_EQ(mgr.Advance(), e0 + 2);
  EXPECT_EQ(mgr.current(), e0 + 2);
}

TEST(EpochTest, BoundaryLagsActiveThread) {
  RegistryGuard rg;
  EpochManager mgr;
  const Epoch entered = mgr.Enter();
  mgr.Advance();
  mgr.Advance();
  // We are a straggler in `entered`; nothing at or above it is reclaimable.
  EXPECT_EQ(mgr.ReclaimBoundary(), entered - 1);
  mgr.Exit();
  EXPECT_EQ(mgr.ReclaimBoundary(), mgr.current() - 1);
}

TEST(EpochTest, QuiesceFastPathWhenEpochUnchanged) {
  RegistryGuard rg;
  EpochManager mgr;
  mgr.Enter();
  EXPECT_FALSE(mgr.Quiesce());  // single shared read, no migration
  mgr.Advance();
  EXPECT_TRUE(mgr.Quiesce());  // must migrate to the open epoch
  EXPECT_FALSE(mgr.Quiesce());
  mgr.Exit();
}

TEST(EpochTest, QuiesceReleasesOldEpoch) {
  RegistryGuard rg;
  EpochManager mgr;
  const Epoch e = mgr.Enter();
  mgr.Advance();
  mgr.Quiesce();  // now active in e+1
  // The old epoch e has no active threads: resources from e are reclaimable.
  EXPECT_GE(mgr.ReclaimBoundary(), e);
  mgr.Exit();
}

TEST(EpochTest, DeferRunsOnlyAfterQuiescence) {
  RegistryGuard rg;
  EpochManager mgr;
  mgr.Enter();
  bool cleaned = false;
  mgr.Defer([&] { cleaned = true; });
  mgr.Advance();
  mgr.Advance();
  EXPECT_EQ(mgr.RunReclaimers(), 0u);  // we are still a straggler
  EXPECT_FALSE(cleaned);
  mgr.Exit();
  EXPECT_EQ(mgr.RunReclaimers(), 1u);
  EXPECT_TRUE(cleaned);
}

TEST(EpochTest, DeferWithoutReadersRunsAfterAdvance) {
  EpochManager mgr;
  int ran = 0;
  mgr.Defer([&] { ran++; });
  mgr.Defer([&] { ran++; });
  EXPECT_EQ(mgr.RunReclaimers(), 0u);  // current epoch not yet closed
  mgr.Advance();
  EXPECT_EQ(mgr.RunReclaimers(), 2u);
  EXPECT_EQ(ran, 2);
}

TEST(EpochTest, ActiveThreadCount) {
  EpochManager mgr;
  EXPECT_EQ(mgr.ActiveThreads(), 0u);
  std::atomic<bool> entered{false}, release{false};
  std::thread t([&] {
    mgr.Enter();
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    mgr.Exit();
    ThreadRegistry::Deregister();
  });
  while (!entered.load()) std::this_thread::yield();
  EXPECT_EQ(mgr.ActiveThreads(), 1u);
  release.store(true);
  t.join();
  EXPECT_EQ(mgr.ActiveThreads(), 0u);
}

// Property: a deferred cleanup never runs while any thread that was active at
// Defer() time is still inside its epoch-protected region.
TEST(EpochTest, ConcurrentReclamationSafety) {
  EpochManager mgr;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> freed{0};
  std::atomic<uint64_t> use_after_free{0};

  struct Resource {
    std::atomic<bool> dead{false};
  };
  std::vector<Resource*> live(64);
  for (auto& r : live) r = new Resource();
  SpinLatch latch;

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochGuard guard(mgr);
        for (int i = 0; i < 64; ++i) {
          Resource* r;
          {
            SpinLatchGuard g(latch);
            r = live[i];
          }
          if (r->dead.load(std::memory_order_acquire)) {
            use_after_free.fetch_add(1);
          }
        }
      }
      ThreadRegistry::Deregister();
    });
  }
  std::vector<Resource*> husks;  // written by the writer only
  std::thread writer([&] {
    for (int round = 0; round < 200; ++round) {
      const int i = round % 64;
      Resource* fresh = new Resource();
      Resource* old;
      {
        SpinLatchGuard g(latch);
        old = live[i];
        live[i] = fresh;
      }
      husks.push_back(old);
      mgr.Defer([old, &freed] {
        old->dead.store(true, std::memory_order_release);
        freed.fetch_add(1);
        // Keep the husk allocated: readers probe `dead` afterwards. It is
        // deleted once every thread has joined.
      });
      mgr.Advance();
      mgr.RunReclaimers();
    }
    ThreadRegistry::Deregister();
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  mgr.Advance();
  mgr.Advance();
  mgr.RunReclaimers();
  EXPECT_EQ(use_after_free.load(), 0u);
  EXPECT_EQ(freed.load(), 200u);
  for (Resource* r : husks) delete r;
  for (Resource* r : live) delete r;
}

TEST(EpochTest, ManyManagersIndependentTimescales) {
  // The paper runs several epoch managers at different granularities; verify
  // they do not interfere through the shared thread registry.
  RegistryGuard rg;
  EpochManager fine, coarse;
  fine.Enter();
  coarse.Enter();
  for (int i = 0; i < 100; ++i) fine.Advance();
  EXPECT_EQ(coarse.current(), Epoch{2});
  EXPECT_EQ(coarse.ReclaimBoundary(), Epoch{1});
  fine.Exit();
  coarse.Exit();
}

}  // namespace
}  // namespace ermia
