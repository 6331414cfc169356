// Snapshot isolation semantics (§3.6.1): snapshot reads, no dirty reads,
// first-updater-wins write-write conflicts, lost-update freedom, early abort
// of doomed updaters, and SI's known anomaly (write skew) which SSN must fix.
#include <gtest/gtest.h>

#include "history_checker.h"
#include "test_util.h"

namespace ermia {
namespace {

class SiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    Put("x", "x0");
    Put("y", "y0");
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

  std::string Get(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::kSi);
    Slice v;
    Status s = txn.Get(pk_, key, &v);
    std::string out = s.ok() ? v.ToString() : "<" + s.ToString() + ">";
    EXPECT_TRUE(txn.Commit().ok());
    return out;
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

TEST_F(SiTest, SnapshotIgnoresLaterCommits) {
  Transaction reader(db_->get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(reader.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "x0");

  Put("x", "x1");  // commits after reader's begin

  ASSERT_TRUE(reader.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "x0");  // still the snapshot value
  EXPECT_TRUE(reader.Commit().ok());
  EXPECT_EQ(Get("x"), "x1");
}

TEST_F(SiTest, NoDirtyReads) {
  const Oid x = OidOf("x");
  Transaction writer(db_->get(), CcScheme::kSi);
  ASSERT_TRUE(writer.Update(table_, x, "dirty").ok());

  Transaction reader(db_->get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(reader.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "x0");  // uncommitted write invisible
  EXPECT_TRUE(reader.Commit().ok());
  writer.Abort();
}

TEST_F(SiTest, FirstUpdaterWinsImmediately) {
  const Oid x = OidOf("x");
  Transaction t1(db_->get(), CcScheme::kSi);
  Transaction t2(db_->get(), CcScheme::kSi);
  ASSERT_TRUE(t1.Update(table_, x, "t1").ok());
  // t2 is doomed and learns it NOW (early detection, not at commit).
  Status s = t2.Update(table_, x, "t2");
  EXPECT_TRUE(s.IsConflict());
  t2.Abort();
  ASSERT_TRUE(t1.Commit().ok());
  EXPECT_EQ(Get("x"), "t1");
}

TEST_F(SiTest, LoserAfterCommitAlsoConflicts) {
  const Oid x = OidOf("x");
  Transaction t2(db_->get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(t2.Read(table_, x, &v).ok());  // snapshot taken

  Put("x", "t1");  // t1 commits an overwrite

  // t2's snapshot predates t1's commit: updating would be a lost update.
  EXPECT_TRUE(t2.Update(table_, x, "t2").IsConflict());
  t2.Abort();
  EXPECT_EQ(Get("x"), "t1");
}

TEST_F(SiTest, AbortedWriterDoesNotBlockRetry) {
  const Oid x = OidOf("x");
  {
    Transaction t1(db_->get(), CcScheme::kSi);
    ASSERT_TRUE(t1.Update(table_, x, "tmp").ok());
    t1.Abort();
  }
  Transaction t2(db_->get(), CcScheme::kSi);
  ASSERT_TRUE(t2.Update(table_, x, "t2").ok());
  ASSERT_TRUE(t2.Commit().ok());
  EXPECT_EQ(Get("x"), "t2");
}

TEST_F(SiTest, RepeatableReadsWithinTransaction) {
  Transaction reader(db_->get(), CcScheme::kSi);
  Slice v1;
  ASSERT_TRUE(reader.Get(pk_, "y", &v1).ok());
  Put("y", "y1");
  Put("y", "y2");
  Slice v2;
  ASSERT_TRUE(reader.Get(pk_, "y", &v2).ok());
  EXPECT_EQ(v1.ToString(), v2.ToString());
  EXPECT_TRUE(reader.Commit().ok());
}

TEST_F(SiTest, ReadersNeverBlockWriters) {
  Transaction reader(db_->get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(reader.Get(pk_, "x", &v).ok());
  // Writer proceeds and commits while the reader is still open.
  Put("x", "new");
  ASSERT_TRUE(reader.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "x0");
  EXPECT_TRUE(reader.Commit().ok());
}

// SI's textbook anomaly: both transactions read {x,y} and write the other
// element. SI commits both (write skew); this documents the behavior SSN
// exists to prevent (see cc_ssn_test.cpp for the counterpart).
TEST_F(SiTest, WriteSkewIsAllowedUnderPlainSi) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  Transaction t1(db_->get(), CcScheme::kSi);
  Transaction t2(db_->get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(t1.Read(table_, x, &v).ok());
  ASSERT_TRUE(t1.Read(table_, y, &v).ok());
  ASSERT_TRUE(t2.Read(table_, x, &v).ok());
  ASSERT_TRUE(t2.Read(table_, y, &v).ok());
  ASSERT_TRUE(t1.Update(table_, x, "t1").ok());
  ASSERT_TRUE(t2.Update(table_, y, "t2").ok());
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().ok());  // non-serializable, accepted by SI
  EXPECT_EQ(Get("x"), "t1");
  EXPECT_EQ(Get("y"), "t2");
}

// The serializability oracle's positive case: feed it the committed
// write-skew history and it must REPORT the cycle (t1 -rw-> t2 -rw-> t1,
// both anti-dependencies). This pins the oracle's sensitivity — the
// acyclicity assertions in cc_ssn_test and serializability_stress_test are
// only meaningful if a genuinely non-serializable history fails the check.
TEST_F(SiTest, OracleDetectsWriteSkewCycleUnderPlainSi) {
  testing::HistoryChecker checker;
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  // Re-seed with stamped initial versions so reads decode to write ids.
  {
    Transaction seed(db_->get(), CcScheme::kSi);
    testing::FootprintBuilder fp;
    char bx[8], by[8];
    const uint64_t wx = checker.NextWriteId();
    const uint64_t wy = checker.NextWriteId();
    ASSERT_TRUE(
        seed.Update(table_, x, testing::HistoryChecker::EncodeWriteId(wx, bx))
            .ok());
    fp.OnWrite(x, wx);
    ASSERT_TRUE(
        seed.Update(table_, y, testing::HistoryChecker::EncodeWriteId(wy, by))
            .ok());
    fp.OnWrite(y, wy);
    ASSERT_TRUE(seed.Commit().ok());
    checker.AddCommitted(std::move(fp).Finish(seed.tid()));
  }

  Transaction t1(db_->get(), CcScheme::kSi);
  Transaction t2(db_->get(), CcScheme::kSi);
  testing::FootprintBuilder fp1, fp2;
  Slice v;
  ASSERT_TRUE(t1.Read(table_, x, &v).ok());
  fp1.OnRead(x, v);
  ASSERT_TRUE(t1.Read(table_, y, &v).ok());
  fp1.OnRead(y, v);
  ASSERT_TRUE(t2.Read(table_, x, &v).ok());
  fp2.OnRead(x, v);
  ASSERT_TRUE(t2.Read(table_, y, &v).ok());
  fp2.OnRead(y, v);
  char b1[8], b2[8];
  const uint64_t w1 = checker.NextWriteId();
  const uint64_t w2 = checker.NextWriteId();
  ASSERT_TRUE(
      t1.Update(table_, x, testing::HistoryChecker::EncodeWriteId(w1, b1))
          .ok());
  fp1.OnWrite(x, w1);
  ASSERT_TRUE(
      t2.Update(table_, y, testing::HistoryChecker::EncodeWriteId(w2, b2))
          .ok());
  fp2.OnWrite(y, w2);
  ASSERT_TRUE(t1.Commit().ok());
  ASSERT_TRUE(t2.Commit().ok());  // plain SI admits the skew
  checker.AddCommitted(std::move(fp1).Finish(t1.tid()));
  checker.AddCommitted(std::move(fp2).Finish(t2.tid()));

  const auto result = checker.Check();
  EXPECT_TRUE(result.cyclic)
      << "oracle failed to flag write skew: " << result.Describe();
  EXPECT_EQ(result.num_txns, 3u);
  EXPECT_FALSE(result.cycle.empty());
}

TEST_F(SiTest, UpdateOwnWriteTwice) {
  const Oid x = OidOf("x");
  Transaction txn(db_->get(), CcScheme::kSi);
  ASSERT_TRUE(txn.Update(table_, x, "a").ok());
  ASSERT_TRUE(txn.Update(table_, x, "b").ok());
  Slice v;
  ASSERT_TRUE(txn.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "b");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Get("x"), "b");
}

TEST_F(SiTest, VersionChainServesMultipleSnapshots) {
  // Three successive committed versions; a reader pinned before each update
  // sees its own version.
  Transaction r0(db_->get(), CcScheme::kSi);
  Put("x", "x1");
  Transaction r1(db_->get(), CcScheme::kSi);
  Put("x", "x2");
  Transaction r2(db_->get(), CcScheme::kSi);

  Slice v;
  ASSERT_TRUE(r0.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "x0");
  ASSERT_TRUE(r1.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "x1");
  ASSERT_TRUE(r2.Get(pk_, "x", &v).ok());
  EXPECT_EQ(v.ToString(), "x2");
  EXPECT_TRUE(r0.Commit().ok());
  EXPECT_TRUE(r1.Commit().ok());
  EXPECT_TRUE(r2.Commit().ok());
}

TEST_F(SiTest, DeleteVisibleOnlyAfterCommit) {
  const Oid x = OidOf("x");
  Transaction deleter(db_->get(), CcScheme::kSi);
  ASSERT_TRUE(deleter.Delete(pk_, "x", x).ok());

  Transaction reader(db_->get(), CcScheme::kSi);
  Slice v;
  EXPECT_TRUE(reader.Get(pk_, "x", &v).ok());  // delete not committed yet
  EXPECT_TRUE(reader.Commit().ok());

  ASSERT_TRUE(deleter.Commit().ok());
  EXPECT_EQ(Get("x"), "<NOT_FOUND>");
}

}  // namespace
}  // namespace ermia
