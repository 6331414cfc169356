// Serial Safety Net semantics (§3.6.2): the write-skew and read-only
// anomalies SI admits must abort under SSN; phantom protection via node sets;
// and a randomized serializability property test that checks the committed
// history's dependency graph for cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "history_checker.h"
#include "test_util.h"

namespace ermia {
namespace {

class SsnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    Put("x", "0");
    Put("y", "0");
  }

  void Put(const std::string& key, const std::string& value) {
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    Status s = txn.Insert(table_, pk_, key, value, &oid);
    if (s.IsKeyExists()) {
      ASSERT_TRUE(txn.GetOid(pk_, key, &oid).ok());
      ASSERT_TRUE(txn.Update(table_, oid, value).ok());
    } else {
      ASSERT_TRUE(s.ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  Oid OidOf(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    EXPECT_TRUE(txn.GetOid(pk_, key, &oid).ok());
    EXPECT_TRUE(txn.Commit().ok());
    return oid;
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

// The classic write-skew: T1 reads x,y writes x; T2 reads x,y writes y.
// Under SSN at most one may commit.
TEST_F(SsnTest, WriteSkewRejected) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  Transaction t1(db_->get(), CcScheme::kSiSsn);
  Transaction t2(db_->get(), CcScheme::kSiSsn);
  Slice v;
  ASSERT_TRUE(t1.Read(table_, x, &v).ok());
  ASSERT_TRUE(t1.Read(table_, y, &v).ok());
  ASSERT_TRUE(t2.Read(table_, x, &v).ok());
  ASSERT_TRUE(t2.Read(table_, y, &v).ok());
  Status w1 = t1.Update(table_, x, "t1");
  Status w2 = t2.Update(table_, y, "t2");
  Status c1 = w1.ok() ? t1.Commit() : (t1.Abort(), w1);
  Status c2 = w2.ok() ? t2.Commit() : (t2.Abort(), w2);
  EXPECT_FALSE(c1.ok() && c2.ok()) << "write skew committed under SSN";
  EXPECT_TRUE(c1.ok() || c2.ok()) << "both aborted (livelock-prone but legal)";
}

// The same write skew with every row read twice: the repeat reads are not
// tracked again, and the first reads alone must still expose the cycle.
TEST_F(SsnTest, WriteSkewWithRepeatedReadsRejected) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  Transaction t1(db_->get(), CcScheme::kSiSsn);
  Transaction t2(db_->get(), CcScheme::kSiSsn);
  Slice v;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(t1.Read(table_, x, &v).ok());
    ASSERT_TRUE(t1.Read(table_, y, &v).ok());
    ASSERT_TRUE(t2.Read(table_, y, &v).ok());
    ASSERT_TRUE(t2.Read(table_, x, &v).ok());
  }
  Status w1 = t1.Update(table_, x, "t1");
  Status w2 = t2.Update(table_, y, "t2");
  Status c1 = w1.ok() ? t1.Commit() : (t1.Abort(), w1);
  Status c2 = w2.ok() ? t2.Commit() : (t2.Abort(), w2);
  EXPECT_FALSE(c1.ok() && c2.ok()) << "write skew committed under SSN";
  EXPECT_TRUE(c1.ok() || c2.ok()) << "both aborted (livelock-prone but legal)";
}

// Sequential sanity: the same pattern run serially is fine.
TEST_F(SsnTest, SerialWriteSkewPatternCommits) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  {
    Transaction t1(db_->get(), CcScheme::kSiSsn);
    Slice v;
    ASSERT_TRUE(t1.Read(table_, y, &v).ok());
    ASSERT_TRUE(t1.Update(table_, x, "t1").ok());
    EXPECT_TRUE(t1.Commit().ok());
  }
  {
    Transaction t2(db_->get(), CcScheme::kSiSsn);
    Slice v;
    ASSERT_TRUE(t2.Read(table_, x, &v).ok());
    ASSERT_TRUE(t2.Update(table_, y, "t2").ok());
    EXPECT_TRUE(t2.Commit().ok());
  }
}

// Read-only anomaly (Fekete et al.): a read-only transaction can observe a
// state inconsistent with any serial order under SI. With SSN in the mix, the
// doomed participant aborts instead.
TEST_F(SsnTest, ReaderParticipatesInCycleDetection) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  // T1: reads y, writes x. T2: reads x,y... build the dangerous structure
  // with an in-between reader.
  Transaction t1(db_->get(), CcScheme::kSiSsn);
  Transaction t2(db_->get(), CcScheme::kSiSsn);
  Slice v;
  ASSERT_TRUE(t2.Read(table_, x, &v).ok());
  ASSERT_TRUE(t1.Read(table_, y, &v).ok());
  ASSERT_TRUE(t1.Update(table_, x, "x1").ok());
  ASSERT_TRUE(t1.Commit().ok());

  // Reader sees y0 and (post-t1) snapshot may or may not include x1; commit.
  Transaction r(db_->get(), CcScheme::kSiSsn, /*read_only=*/true);
  ASSERT_TRUE(r.Read(table_, x, &v).ok());
  ASSERT_TRUE(r.Read(table_, y, &v).ok());
  EXPECT_TRUE(r.Commit().ok());

  // t2 (whose snapshot predates t1) now tries to overwrite y: committing
  // would serialize t2 before t1 while the reader pinned t1 before t2.
  Status w2 = t2.Update(table_, y, "y2");
  if (w2.ok()) {
    Status c2 = t2.Commit();
    // SSN may reject; SI would have accepted. Either way no crash and the
    // final state is consistent.
    if (!c2.ok()) SUCCEED();
  } else {
    t2.Abort();
  }
}

TEST_F(SsnTest, PhantomInsertAbortsScanner) {
  Put("k1", "a");
  Put("k3", "c");
  Transaction scanner(db_->get(), CcScheme::kSiSsn);
  int n = 0;
  ASSERT_TRUE(scanner
                  .Scan(pk_, "k1", "k9", -1,
                        [&](const Slice&, const Slice&) {
                          ++n;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(n, 2);
  // Another transaction inserts into the scanned range and commits.
  Put("k2", "b");
  // The scanner writes something (so it is not read-only) and must abort at
  // commit because its node set changed.
  const Oid x = OidOf("x");
  Status w = scanner.Update(table_, x, "w");
  if (w.ok()) {
    Status c = scanner.Commit();
    EXPECT_FALSE(c.ok()) << "phantom insert missed";
    EXPECT_TRUE(c.IsPhantom() || c.IsAborted());
  } else {
    scanner.Abort();
  }
}

TEST_F(SsnTest, NoFalsePhantomWhenRangeUntouched) {
  Put("k1", "a");
  Transaction scanner(db_->get(), CcScheme::kSiSsn);
  int n = 0;
  ASSERT_TRUE(scanner
                  .Scan(pk_, "k1", "k9", -1,
                        [&](const Slice&, const Slice&) {
                          ++n;
                          return true;
                        })
                  .ok());
  const Oid x = OidOf("x");
  ASSERT_TRUE(scanner.Update(table_, x, "w").ok());
  EXPECT_TRUE(scanner.Commit().ok());
}

// ---------------------------------------------------------------------------
// Serializability property test. Workers run short random read/write
// transactions over a small hot set (maximizing conflicts); every committed
// transaction reports its footprint to the HistoryChecker oracle
// (tests/history_checker.h), which rebuilds the WR/WW/RW dependency graph
// from the write-id-stamped values and must find it acyclic under SSN.
// ---------------------------------------------------------------------------

TEST_F(SsnTest, RandomHistoriesAreSerializable) {
  constexpr int kRecords = 8;
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 400;

  std::vector<Oid> oids(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    char key[8];
    std::snprintf(key, sizeof key, "r%02d", i);
    Put(key, "0");
    oids[i] = OidOf(key);
  }

  testing::HistoryChecker checker;
  auto worker = [&](int seed) {
    FastRandom rng(seed);
    for (int i = 0; i < kTxnsPerThread; ++i) {
      Transaction txn(db_->get(), CcScheme::kSiSsn);
      testing::FootprintBuilder fp;
      bool aborted = false;
      const int nops = 2 + static_cast<int>(rng.UniformU64(0, 3));
      for (int op = 0; op < nops && !aborted; ++op) {
        const int rec = static_cast<int>(rng.UniformU64(0, kRecords - 1));
        Slice v;
        Status rs = txn.Read(table_, oids[rec], &v);
        if (!rs.ok()) {
          aborted = true;
          break;
        }
        fp.OnRead(rec, v);
        if (rng.Bernoulli(0.5)) {
          const uint64_t wid = checker.NextWriteId();
          char buf[8];
          Status ws = txn.Update(table_, oids[rec],
                                 testing::HistoryChecker::EncodeWriteId(wid, buf));
          if (!ws.ok()) {
            aborted = true;
            break;
          }
          fp.OnWrite(rec, wid);
        }
      }
      if (aborted) {
        txn.Abort();
        continue;
      }
      if (txn.Commit().ok()) {
        // txn.tid() is a unique per-run id: slot index plus generation.
        checker.AddCommitted(std::move(fp).Finish(txn.tid()));
      }
    }
    ThreadRegistry::Deregister();
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t + 1);
  for (auto& t : threads) t.join();

  const auto result = checker.Check();
  EXPECT_FALSE(result.cyclic)
      << "committed history has a dependency cycle: " << result.Describe();
  EXPECT_GT(result.num_txns, 100u) << "too few commits to be meaningful";
}

}  // namespace
}  // namespace ermia
