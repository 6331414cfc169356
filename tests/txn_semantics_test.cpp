// Cross-cutting transaction semantics, parameterized over all four CC
// schemes: own-write visibility (point reads and scans), invisibility of
// others' uncommitted work, in-transaction insert/delete/insert cycles,
// all-or-nothing atomicity of multi-operation transactions, index/record
// interleavings, and the garbage collector's retirement of deleted keys.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

#include "test_util.h"

namespace ermia {
namespace {

class TxnSemanticsTest : public ::testing::TestWithParam<CcScheme> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
  }

  CcScheme scheme() const { return GetParam(); }
  Database* db() { return db_->get(); }

  std::vector<std::string> ScanKeys(Transaction& txn) {
    std::vector<std::string> keys;
    EXPECT_TRUE(txn.Scan(pk_, Slice(), Slice(), -1,
                         [&](const Slice& k, const Slice&) {
                           keys.push_back(k.ToString());
                           return true;
                         })
                    .ok());
    return keys;
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

TEST_P(TxnSemanticsTest, ScanSeesOwnUncommittedInserts) {
  Transaction txn(db(), scheme());
  ASSERT_TRUE(txn.Insert(table_, pk_, "b", "2", nullptr).ok());
  ASSERT_TRUE(txn.Insert(table_, pk_, "a", "1", nullptr).ok());
  EXPECT_EQ(ScanKeys(txn), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_P(TxnSemanticsTest, ScanHidesOthersUncommittedInserts) {
  Transaction other(db(), scheme());
  ASSERT_TRUE(other.Insert(table_, pk_, "ghost", "x", nullptr).ok());

  Transaction txn(db(), scheme());
  // MVCC/OCC readers never block: the uncommitted insert is invisible.
  EXPECT_TRUE(ScanKeys(txn).empty());
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(other.Commit().ok());
}

TEST_P(TxnSemanticsTest, ReadOwnDelete) {
  Oid oid = 0;
  {
    Transaction setup(db(), scheme());
    ASSERT_TRUE(setup.Insert(table_, pk_, "k", "v", &oid).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  Transaction txn(db(), scheme());
  Slice v;
  ASSERT_TRUE(txn.Read(table_, oid, &v).ok());
  ASSERT_TRUE(txn.Delete(pk_, "k", oid).ok());
  EXPECT_TRUE(txn.Read(table_, oid, &v).IsNotFound());  // own tombstone
  EXPECT_TRUE(ScanKeys(txn).empty());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_P(TxnSemanticsTest, InsertDeleteInsertWithinOneTransaction) {
  Transaction txn(db(), scheme());
  Oid first = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v1", &first).ok());
  ASSERT_TRUE(txn.Delete(pk_, "k", first).ok());
  Slice v;
  EXPECT_TRUE(txn.Get(pk_, "k", &v).IsNotFound());
  Oid second = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v2", &second).ok());
  EXPECT_EQ(second, first);  // tombstone reuse keeps the OID
  ASSERT_TRUE(txn.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v2");
  ASSERT_TRUE(txn.Commit().ok());

  Transaction check(db(), scheme());
  ASSERT_TRUE(check.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v2");
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(TxnSemanticsTest, MultiOperationAtomicity) {
  // A transaction that inserts, updates, and deletes across several keys
  // either applies everything (commit) or nothing (abort).
  Oid keep = 0, kill = 0;
  {
    Transaction setup(db(), scheme());
    ASSERT_TRUE(setup.Insert(table_, pk_, "keep", "old", &keep).ok());
    ASSERT_TRUE(setup.Insert(table_, pk_, "kill", "old", &kill).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  auto run_batch = [&](bool commit) {
    Transaction txn(db(), scheme());
    EXPECT_TRUE(txn.Insert(table_, pk_, "fresh", "new", nullptr).ok());
    EXPECT_TRUE(txn.Update(table_, keep, "new").ok());
    EXPECT_TRUE(txn.Delete(pk_, "kill", kill).ok());
    if (commit) {
      EXPECT_TRUE(txn.Commit().ok());
    } else {
      txn.Abort();
    }
  };
  run_batch(/*commit=*/false);
  {
    Transaction check(db(), scheme());
    Slice v;
    EXPECT_TRUE(check.Get(pk_, "fresh", &v).IsNotFound());
    ASSERT_TRUE(check.Get(pk_, "keep", &v).ok());
    EXPECT_EQ(v.ToString(), "old");
    EXPECT_TRUE(check.Get(pk_, "kill", &v).ok());
    EXPECT_TRUE(check.Commit().ok());
  }
  run_batch(/*commit=*/true);
  {
    Transaction check(db(), scheme());
    Slice v;
    ASSERT_TRUE(check.Get(pk_, "fresh", &v).ok());
    ASSERT_TRUE(check.Get(pk_, "keep", &v).ok());
    EXPECT_EQ(v.ToString(), "new");
    EXPECT_TRUE(check.Get(pk_, "kill", &v).IsNotFound());
    EXPECT_TRUE(check.Commit().ok());
  }
}

TEST_P(TxnSemanticsTest, SecondaryEntriesAreAtomicWithTheRecord) {
  Index* sec = (*db_)->CreateIndex(table_, "t_sec");
  {
    Transaction txn(db(), scheme());
    Oid oid = 0;
    ASSERT_TRUE(txn.Insert(table_, pk_, "p", "payload", &oid).ok());
    ASSERT_TRUE(txn.InsertIndexEntry(sec, "s1", oid).ok());
    ASSERT_TRUE(txn.InsertIndexEntry(sec, "s2", oid).ok());
    txn.Abort();
  }
  Transaction check(db(), scheme());
  Slice v;
  EXPECT_TRUE(check.Get(pk_, "p", &v).IsNotFound());
  EXPECT_TRUE(check.Get(sec, "s1", &v).IsNotFound());
  EXPECT_TRUE(check.Get(sec, "s2", &v).IsNotFound());
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(TxnSemanticsTest, UpdateAfterOwnInsertKeepsLatestValue) {
  Transaction txn(db(), scheme());
  Oid oid = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v0", &oid).ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(txn.Update(table_, oid, "v" + std::to_string(i)).ok());
  }
  Slice v;
  ASSERT_TRUE(txn.Read(table_, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "v5");
  ASSERT_TRUE(txn.Commit().ok());
  Transaction check(db(), scheme());
  ASSERT_TRUE(check.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v5");
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(TxnSemanticsTest, EmptyTransactionCommits) {
  Transaction txn(db(), scheme());
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(TxnSemanticsTest, StatusCodesDistinguishOutcomes) {
  // NotFound (no data), KeyExists (duplicate), and conflict-class statuses
  // must be distinguishable so applications can retry correctly.
  Transaction txn(db(), scheme());
  Slice v;
  Status nf = txn.Get(pk_, "missing", &v);
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ShouldAbort());
  ASSERT_TRUE(txn.Insert(table_, pk_, "dup", "a", nullptr).ok());
  ASSERT_TRUE(txn.Commit().ok());

  Transaction txn2(db(), scheme());
  Status ke = txn2.Insert(table_, pk_, "dup", "b", nullptr);
  EXPECT_TRUE(ke.IsKeyExists());
  EXPECT_FALSE(ke.ShouldAbort());
  txn2.Abort();
}

// An update that reaches a chain its inserter emptied by rolling back (the
// index entry is gone with it) must fail: a version installed there would be
// a row no key leads to, reported as written.
TEST_P(TxnSemanticsTest, UpdateOfRolledBackInsertConflicts) {
  Transaction inserter(db(), scheme());
  Oid oid = 0;
  ASSERT_TRUE(inserter.Insert(table_, pk_, "k", "mine", &oid).ok());
  Transaction writer(db(), scheme());
  Oid probed = 0;
  NodeHandle handle;
  ASSERT_TRUE(pk_->tree().Lookup("k", &probed, &handle));  // the probe
  ASSERT_EQ(probed, oid);
  Slice v;
  EXPECT_TRUE(writer.Read(table_, oid, &v).IsNotFound());  // uncommitted
  inserter.Abort();  // unlinks the TID-stamped head and removes the key
  ASSERT_EQ(table_->array().Head(oid), nullptr);
  Status s = writer.Update(table_, oid, "orphan");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.ShouldAbort());
  writer.Abort();
  EXPECT_EQ(table_->array().Head(oid), nullptr);
}

// Deleted records of a single-index table leave the index once no snapshot
// can read them; a re-insert then gets a fresh OID.
TEST_P(TxnSemanticsTest, GcRetiresDeletedKeysOnceNoSnapshotNeedsThem) {
  constexpr int kRows = 100;
  auto key = [](int i) { return "k" + std::to_string(1000 + i); };
  std::vector<Oid> oids(kRows);
  {
    Transaction txn(db(), scheme());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(txn.Insert(table_, pk_, key(i), "v" + key(i), &oids[i]).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto old = std::make_unique<Transaction>(db(), scheme(), /*read_only=*/true);
  for (int i = 0; i < kRows; ++i) {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.Delete(pk_, key(i), oids[i]).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  db()->gc().RunOnce();
  db()->gc().RunOnce();
  // The older snapshot still reads every row, through the index.
  for (int i = 0; i < kRows; ++i) {
    Slice v;
    ASSERT_TRUE(old->Get(pk_, key(i), &v).ok()) << key(i);
    EXPECT_EQ(v.ToString(), "v" + key(i));
  }
  EXPECT_EQ(pk_->tree().Size(), static_cast<size_t>(kRows));
  ASSERT_TRUE(old->Commit().ok());
  old.reset();

  db()->gc().RunOnce();
  db()->gc().RunOnce();
  EXPECT_EQ(pk_->tree().Size(), 0u);
  for (int i = 0; i < kRows; ++i) {
    Oid found = 0;
    NodeHandle handle;
    EXPECT_FALSE(pk_->tree().Lookup(key(i), &found, &handle)) << key(i);
    EXPECT_EQ(table_->array().Head(oids[i]), nullptr) << key(i);
  }
  EXPECT_GE(db()->SnapshotMetrics().counter(metrics::Ctr::kGcRecordsRetired),
            static_cast<uint64_t>(kRows));

  std::vector<Oid> fresh(kRows);
  {
    Transaction txn(db(), scheme());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(txn.Insert(table_, pk_, key(i), "w" + key(i), &fresh[i]).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction check(db(), scheme());
  for (int i = 0; i < kRows; ++i) {
    EXPECT_NE(fresh[i], oids[i]) << "retired OIDs are not reused";
    Slice v;
    ASSERT_TRUE(check.Get(pk_, key(i), &v).ok()) << key(i);
    EXPECT_EQ(v.ToString(), "w" + key(i));
  }
  EXPECT_TRUE(check.Commit().ok());
}

// Workers insert, delete and re-insert a small shared key set while another
// thread runs GC passes back to back. A per-key lock orders each key's
// transactions (the collector is the racer under test); every transaction
// checks the key against an oracle of committed effects, so a committed
// insert that no key leads to, or a deleted row that comes back, shows.
TEST_P(TxnSemanticsTest, RetirementRacingReinsertsKeepsCommittedInserts) {
  constexpr int kKeys = 24;
  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 1500;
  std::mutex key_mu[kKeys];
  std::string oracle[kKeys];  // committed value, empty = absent
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread collector([&] {
    while (!stop.load()) db()->gc().RunOnce();
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      FastRandom rng(17 + w);
      for (int op = 0; op < kOpsPerWorker; ++op) {
        const int k = static_cast<int>(rng.UniformU64(0, kKeys - 1));
        const std::string key = "key" + std::to_string(k);
        std::lock_guard<std::mutex> g(key_mu[k]);
        Transaction txn(db(), scheme());
        Oid oid = 0;
        Slice v;
        Status s = txn.GetOid(pk_, key, &oid);
        if (s.ok()) s = txn.Read(table_, oid, &v);
        if (s.ShouldAbort()) continue;  // destructor aborts
        if (s.ok() != !oracle[k].empty() ||
            (s.ok() && v.ToString() != oracle[k])) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::string value =
            std::to_string(w) + "-" + std::to_string(op);
        Status ws = s.ok() ? txn.Delete(pk_, key, oid)
                           : txn.Insert(table_, pk_, key, value, nullptr);
        if (!ws.ok()) {
          if (!ws.ShouldAbort()) mismatches.fetch_add(1);
          continue;
        }
        if (txn.Commit().ok()) oracle[k] = s.ok() ? std::string() : value;
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true);
  collector.join();
  EXPECT_EQ(mismatches.load(), 0);

  db()->gc().RunOnce();
  Transaction check(db(), scheme());
  size_t live = 0;
  for (int k = 0; k < kKeys; ++k) {
    Slice v;
    Status s = check.Get(pk_, "key" + std::to_string(k), &v);
    if (oracle[k].empty()) {
      EXPECT_TRUE(s.IsNotFound()) << k;
    } else {
      ++live;
      ASSERT_TRUE(s.ok()) << k << ": " << s.ToString();
      EXPECT_EQ(v.ToString(), oracle[k]);
    }
  }
  EXPECT_TRUE(check.Commit().ok());
  EXPECT_EQ(pk_->tree().Size(), live);  // every deleted key was retired
  EXPECT_GT(db()->SnapshotMetrics().counter(metrics::Ctr::kGcRecordsRetired),
            0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TxnSemanticsTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc),
                         testing::SchemeParamName);

}  // namespace
}  // namespace ermia
