// Cross-cutting transaction semantics, parameterized over all four CC
// schemes: own-write visibility (point reads and scans), invisibility of
// others' uncommitted work, in-transaction insert/delete/insert cycles,
// all-or-nothing atomicity of multi-operation transactions, and index/record
// interleavings.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  ASSERT_TRUE(txn.Delete(table_, oid).ok());
  EXPECT_TRUE(txn.Read(table_, oid, &v).IsNotFound());  // own tombstone
  EXPECT_TRUE(ScanKeys(txn).empty());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_P(TxnSemanticsTest, InsertDeleteInsertWithinOneTransaction) {
  Transaction txn(db(), scheme());
  Oid first = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v1", &first).ok());
  ASSERT_TRUE(txn.Delete(table_, first).ok());
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
    EXPECT_TRUE(txn.Delete(table_, kill).ok());
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

INSTANTIATE_TEST_SUITE_P(AllSchemes, TxnSemanticsTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc),
                         testing::SchemeParamName);

}  // namespace
}  // namespace ermia
