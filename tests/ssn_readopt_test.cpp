// SSN read tracking (cc/ssn.cpp, cc/safe_snapshot.h): safe-snapshot LSN
// maintenance, declared read-only SSN transactions with zero tracking,
// ordinary SSN transactions tracking every read, and the reader registry's
// saturation behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cc/safe_snapshot.h"
#include "cc/ssn_readers.h"
#include "test_util.h"

namespace ermia {
namespace {

class SsnReadOptTest : public ::testing::Test {
 protected:
  void Open(EngineConfig config) {
    config.synchronous_commit = true;
    db_ = std::make_unique<testing::TempDb>(config);
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
  }

  void Put(const std::string& key, const std::string& value) {
    Transaction txn(db_->get(), CcScheme::kSiSsn);
    Oid oid = 0;
    Status s = txn.Insert(table_, pk_, key, value, &oid);
    if (s.IsKeyExists()) {
      ASSERT_TRUE(txn.GetOid(pk_, key, &oid).ok());
      ASSERT_TRUE(txn.Update(table_, oid, value).ok());
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  // Drives the safe-snapshot protocol until the published LSN reaches the
  // current log tail. One Tick both opens and validates a round when nothing
  // is in flight, but the concurrently running snapshot daemon may have left
  // a round pending, so pump a few times.
  void PublishSafeSnapshot() {
    Database* db = db_->get();
    const uint64_t target = db->log().CurrentOffset();
    for (int i = 0; i < 1000 && db->safe_snapshot_offset() < target; ++i) {
      db->safesnap().Tick(db->gc_epoch(), db->log().CurrentOffset());
      if (db->safe_snapshot_offset() >= target) break;
      // A round can stall on an epoch straggler — e.g. the GC daemon pins
      // the epoch for the duration of its pass, which under TSan is long
      // enough to swallow a tight retry loop — so give stragglers time to
      // move instead of burning the whole budget inside one pinned window.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(db->safe_snapshot_offset(), target);
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

TEST_F(SsnReadOptTest, SafeSnapshotLsnAdvancesAndGcHorizonLags) {
  Open({});
  Database* db = db_->get();
  const uint64_t initial = db->safe_snapshot_offset();
  Put("a", "1");
  Put("b", "2");
  PublishSafeSnapshot();
  const uint64_t published = db->safe_snapshot_offset();
  EXPECT_GT(published, initial);
  // The GC horizon is the previous tick's published value: strictly behind
  // the fresh publication, at or ahead of the initial one.
  EXPECT_LT(db->safesnap().gc_horizon(), published);
  EXPECT_GE(db->safesnap().gc_horizon(), initial);
  // The gauge mirrors the manager's value.
  const metrics::MetricsSnapshot snap = db->SnapshotMetrics();
  EXPECT_GE(snap.counter(metrics::Ctr::kSsnSafeSnapshotLsn), published);
  EXPECT_GE(snap.counter(metrics::Ctr::kSsnSafesnapRounds), 1u);
}

TEST_F(SsnReadOptTest, PoisonedCandidateIsBurntThenLaterCandidatePublishes) {
  Open({});
  Database* db = db_->get();
  Put("a", "1");
  PublishSafeSnapshot();
  const uint64_t published = db->safe_snapshot_offset();
  // A committed backward edge (final sstamp < cstamp) spanning every
  // candidate in (published, covers]: those candidates must burn. It goes in
  // before "b" commits because the snapshot daemon ticks on its own: a
  // candidate it validated between that commit and a later record would be
  // published (rightly: no edge existed yet), and no candidate in the
  // interval would be left to burn.
  const uint64_t covers = db->log().CurrentOffset() + (64u << 4);
  db->safesnap().RecordBackwardEdge(published, covers);
  const uint64_t burnt_before = db->safesnap().GetStats().burnt;
  Put("b", "2");
  const uint64_t tail = db->log().CurrentOffset();
  ASSERT_GT(tail, published);
  ASSERT_LE(tail, covers);
  // A round validates only once every epoch straggler has left, and a GC
  // pass pins the epoch for its whole duration: on a loaded host that can
  // outlast any fixed count of back-to-back Ticks, so bound the wait by
  // wall-clock time instead.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->safesnap().GetStats().burnt == burnt_before &&
         std::chrono::steady_clock::now() < deadline) {
    db->safesnap().Tick(db->gc_epoch(), db->log().CurrentOffset());
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_GT(db->safesnap().GetStats().burnt, burnt_before);
  EXPECT_EQ(db->safe_snapshot_offset(), published) << "unsafe candidate leaked";
  // Once the tail moves past the poisoned interval, publication resumes.
  while (db->log().CurrentOffset() <= covers) Put("filler", "x");
  PublishSafeSnapshot();
  EXPECT_GT(db->safe_snapshot_offset(), covers);
}

TEST_F(SsnReadOptTest, SafesnapReadOnlyTxnZeroTrackingNeverAborts) {
  EngineConfig config;
  config.ssn_safe_snapshot = true;
  Open(config);
  Database* db = db_->get();
  constexpr int kRows = 16;
  for (int i = 0; i < kRows; ++i) {
    Put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  PublishSafeSnapshot();

  const metrics::MetricsSnapshot before = db->SnapshotMetrics();
  constexpr int kReaders = 8;
  for (int r = 0; r < kReaders; ++r) {
    Transaction txn(db, CcScheme::kSiSsn, /*read_only=*/true);
    EXPECT_TRUE(txn.ssn_safe_snapshot());
    for (int i = 0; i < kRows; ++i) {
      Slice v;
      ASSERT_TRUE(txn.Get(pk_, "k" + std::to_string(i), &v).ok());
      EXPECT_EQ(v.ToString(), "v" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  const metrics::MetricsSnapshot delta = db->SnapshotMetrics().DeltaSince(before);
  EXPECT_EQ(delta.counter(metrics::Ctr::kSsnSafesnapTxns), kReaders);
  // Zero tracking: no reader-bitmap RMWs — the safe-snapshot reader skips
  // SSN read machinery entirely.
  EXPECT_EQ(delta.counter(metrics::Ctr::kSsnBitmapAdvertises), 0u);

  // Never-abort: overwrite a row mid-transaction. A tracked SSN reader would
  // now carry an inbound anti-dependency; the safe-snapshot reader commits
  // regardless (it can never be part of a dangerous structure).
  Transaction reader(db, CcScheme::kSiSsn, /*read_only=*/true);
  Slice v;
  ASSERT_TRUE(reader.Get(pk_, "k0", &v).ok());
  Put("k0", "overwritten");
  ASSERT_TRUE(reader.Get(pk_, "k1", &v).ok());
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(SsnReadOptTest, SafesnapReaderSeesStableSnapshotAcrossWriters) {
  EngineConfig config;
  config.ssn_safe_snapshot = true;
  Open(config);
  Put("x", "old");
  PublishSafeSnapshot();

  Transaction reader(db_->get(), CcScheme::kSiSsn, /*read_only=*/true);
  Put("x", "new");  // commits after the reader began
  Slice v;
  ASSERT_TRUE(reader.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "old") << "reader must stay on its safe snapshot";
  ASSERT_TRUE(reader.Commit().ok());

  Transaction after(db_->get(), CcScheme::kSiSsn);
  ASSERT_TRUE(after.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "new");
  ASSERT_TRUE(after.Commit().ok());
}

// An ordinary (not declared read-only) SSN transaction advertises every
// read in the version's readers bitmap, however old the version is.
TEST_F(SsnReadOptTest, ReadOptDisabledTracksEverything) {
  Open({});
  Database* db = db_->get();
  Put("a", "1");
  PublishSafeSnapshot();
  const metrics::MetricsSnapshot before = db->SnapshotMetrics();
  {
    Transaction txn(db, CcScheme::kSiSsn);
    Slice v;
    ASSERT_TRUE(txn.Get(pk_, "a", &v).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  const metrics::MetricsSnapshot delta = db->SnapshotMetrics().DeltaSince(before);
  EXPECT_EQ(delta.counter(metrics::Ctr::kSsnBitmapAdvertises), 1u);
}

// A second read of a version the transaction already tracks (its bit is in
// the version's readers bitmap) neither advertises again nor adds a second
// read-set entry.
TEST_F(SsnReadOptTest, RepeatedReadAdvertisesOnce) {
  Open({});
  Database* db = db_->get();
  Put("a", "1");
  const metrics::MetricsSnapshot before = db->SnapshotMetrics();
  {
    Transaction txn(db, CcScheme::kSiSsn);
    Slice v;
    ASSERT_TRUE(txn.Get(pk_, "a", &v).ok());
    ASSERT_TRUE(txn.Get(pk_, "a", &v).ok());
    EXPECT_EQ(v.ToString(), "1");
    ASSERT_TRUE(txn.Commit().ok());
  }
  const metrics::MetricsSnapshot delta = db->SnapshotMetrics().DeltaSince(before);
  EXPECT_EQ(delta.counter(metrics::Ctr::kSsnBitmapAdvertises), 1u);
}

// Regression: the 65th concurrent tracked reader must wait (bounded backoff,
// counted in slot_waits) and proceed as soon as a slot frees — not deadlock,
// not crash, not silently drop tracking.
TEST(SsnReaderRegistryTest, SixtyFifthReaderWaitsThenProceeds) {
  SsnReaderRegistry reg;
  std::vector<uint32_t> slots;
  for (uint32_t i = 0; i < SsnReaderRegistry::kSlots; ++i) {
    slots.push_back(reg.Acquire(/*tid=*/100 + i));
  }
  EXPECT_EQ(reg.slot_waits(), 0u);

  std::atomic<uint32_t> late_slot{SsnReaderRegistry::kNoSlot};
  std::thread late([&] { late_slot.store(reg.Acquire(/*tid=*/999)); });
  // The saturated Acquire must register exactly one wait episode.
  while (reg.slot_waits() == 0) std::this_thread::yield();
  EXPECT_EQ(late_slot.load(), SsnReaderRegistry::kNoSlot);

  const uint32_t freed = slots.back();
  slots.pop_back();
  reg.Release(freed);
  late.join();
  EXPECT_EQ(late_slot.load(), freed);
  EXPECT_EQ(reg.TidOf(freed), 999u);
  EXPECT_EQ(reg.slot_waits(), 1u);

  reg.Release(late_slot.load());
  for (uint32_t s : slots) reg.Release(s);
}

// 80 threads hammering a 64-slot registry: everyone completes, every slot
// comes back free, and the wait counter reflects the oversubscription.
TEST(SsnReaderRegistryTest, OversubscribedChurnCompletes) {
  SsnReaderRegistry reg;
  constexpr uint32_t kThreads = 80;
  constexpr uint32_t kRounds = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (uint32_t r = 0; r < kRounds; ++r) {
        const uint32_t slot = reg.Acquire(/*tid=*/t * kRounds + r + 1);
        ASSERT_LT(slot, SsnReaderRegistry::kSlots);
        reg.Release(slot);
      }
    });
  }
  for (auto& th : threads) th.join();
  uint32_t free_slots = 0;
  for (uint32_t s = 0; s < SsnReaderRegistry::kSlots; ++s) {
    if (reg.TidOf(s) == 0) ++free_slots;
  }
  EXPECT_EQ(free_slots, SsnReaderRegistry::kSlots);
}

}  // namespace
}  // namespace ermia
