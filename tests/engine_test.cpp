// Engine-level integration tests, parameterized over all three CC schemes:
// basic CRUD, visibility, scans, secondary indexes, duplicate keys, deletes
// with OID reuse, and abort rollback.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.h"

namespace ermia {
namespace {

class EngineTest : public ::testing::TestWithParam<CcScheme> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    sec_ = (*db_)->CreateIndex(table_, "t_sec");
  }

  CcScheme scheme() const { return GetParam(); }
  Database* db() { return db_->get(); }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
  Index* sec_ = nullptr;
};

TEST_P(EngineTest, InsertGetCommit) {
  Transaction txn(db(), scheme());
  Oid oid = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "key1", "value1", &oid).ok());
  Slice v;
  ASSERT_TRUE(txn.Get(pk_, "key1", &v).ok());
  EXPECT_EQ(v.ToString(), "value1");
  ASSERT_TRUE(txn.Commit().ok());

  Transaction txn2(db(), scheme());
  ASSERT_TRUE(txn2.Get(pk_, "key1", &v).ok());
  EXPECT_EQ(v.ToString(), "value1");
  ASSERT_TRUE(txn2.Commit().ok());
}

TEST_P(EngineTest, GetMissingIsNotFound) {
  Transaction txn(db(), scheme());
  Slice v;
  EXPECT_TRUE(txn.Get(pk_, "nope", &v).IsNotFound());
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(EngineTest, UpdateVisibleAfterCommit) {
  {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v1", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Oid oid = 0;
  {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.GetOid(pk_, "k", &oid).ok());
    ASSERT_TRUE(txn.Update(table_, oid, "v2").ok());
    // Own write visible before commit.
    Slice v;
    ASSERT_TRUE(txn.Read(table_, oid, &v).ok());
    EXPECT_EQ(v.ToString(), "v2");
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db(), scheme());
  Slice v;
  ASSERT_TRUE(txn.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v2");
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(EngineTest, AbortRollsBackEverything) {
  {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.Insert(table_, pk_, "stay", "v", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(db(), scheme());
    Oid oid = 0;
    ASSERT_TRUE(txn.Insert(table_, pk_, "gone", "x", &oid).ok());
    ASSERT_TRUE(txn.InsertIndexEntry(sec_, "gone-sec", oid).ok());
    Oid stay_oid = 0;
    ASSERT_TRUE(txn.GetOid(pk_, "stay", &stay_oid).ok());
    ASSERT_TRUE(txn.Update(table_, stay_oid, "changed").ok());
    txn.Abort();
  }
  Transaction check(db(), scheme());
  Slice v;
  EXPECT_TRUE(check.Get(pk_, "gone", &v).IsNotFound());
  EXPECT_TRUE(check.Get(sec_, "gone-sec", &v).IsNotFound());
  ASSERT_TRUE(check.Get(pk_, "stay", &v).ok());
  EXPECT_EQ(v.ToString(), "v");
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(EngineTest, DuplicateInsertFails) {
  Transaction txn(db(), scheme());
  ASSERT_TRUE(txn.Insert(table_, pk_, "dup", "a", nullptr).ok());
  ASSERT_TRUE(txn.Commit().ok());

  Transaction txn2(db(), scheme());
  EXPECT_TRUE(txn2.Insert(table_, pk_, "dup", "b", nullptr).IsKeyExists());
  txn2.Abort();
}

TEST_P(EngineTest, DeleteThenReinsertReusesKey) {
  Oid oid = 0;
  {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v1", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.Delete(table_, oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(db(), scheme());
    Slice v;
    EXPECT_TRUE(txn.Get(pk_, "k", &v).IsNotFound());
    EXPECT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(db(), scheme());
    Oid reused = 0;
    ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v2", &reused).ok());
    EXPECT_EQ(reused, oid);  // tombstone overwrite reuses the OID
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction check(db(), scheme());
  Slice v;
  ASSERT_TRUE(check.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v2");
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(EngineTest, ScanOrderedAndBounded) {
  {
    Transaction txn(db(), scheme());
    for (int i = 0; i < 50; ++i) {
      char key[8];
      std::snprintf(key, sizeof key, "k%03d", i);
      ASSERT_TRUE(
          txn.Insert(table_, pk_, key, std::string("v") + key, nullptr).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db(), scheme());
  std::vector<std::string> keys;
  ASSERT_TRUE(txn.Scan(pk_, "k010", "k019", -1,
                       [&](const Slice& k, const Slice& v) {
                         keys.push_back(k.ToString());
                         EXPECT_EQ(v.ToString(), "v" + k.ToString());
                         return true;
                       })
                  .ok());
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), "k010");
  EXPECT_EQ(keys.back(), "k019");
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(EngineTest, ScanReverseAndLimit) {
  {
    Transaction txn(db(), scheme());
    for (int i = 0; i < 20; ++i) {
      char key[8];
      std::snprintf(key, sizeof key, "k%03d", i);
      ASSERT_TRUE(txn.Insert(table_, pk_, key, "v", nullptr).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db(), scheme());
  std::vector<std::string> keys;
  ASSERT_TRUE(txn.Scan(
                     pk_, "k000", "k019", 3,
                     [&](const Slice& k, const Slice&) {
                       keys.push_back(k.ToString());
                       return true;
                     },
                     /*reverse=*/true)
                  .ok());
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "k019");
  EXPECT_EQ(keys[2], "k017");
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(EngineTest, ScanSkipsDeletedRecords) {
  Oid oid = 0;
  {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.Insert(table_, pk_, "a", "1", nullptr).ok());
    ASSERT_TRUE(txn.Insert(table_, pk_, "b", "2", &oid).ok());
    ASSERT_TRUE(txn.Insert(table_, pk_, "c", "3", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(db(), scheme());
    ASSERT_TRUE(txn.Delete(table_, oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db(), scheme());
  std::vector<std::string> keys;
  ASSERT_TRUE(txn.Scan(pk_, "a", "c", -1,
                       [&](const Slice& k, const Slice&) {
                         keys.push_back(k.ToString());
                         return true;
                       })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "c"}));
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(EngineTest, SecondaryIndexFindsSameRecord) {
  {
    Transaction txn(db(), scheme());
    Oid oid = 0;
    ASSERT_TRUE(txn.Insert(table_, pk_, "primary-key", "payload", &oid).ok());
    ASSERT_TRUE(txn.InsertIndexEntry(sec_, "secondary-key", oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db(), scheme());
  Slice v1, v2;
  ASSERT_TRUE(txn.Get(pk_, "primary-key", &v1).ok());
  ASSERT_TRUE(txn.Get(sec_, "secondary-key", &v2).ok());
  EXPECT_EQ(v1.ToString(), v2.ToString());
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(EngineTest, ReadOnlyTransactionCannotWrite) {
  Transaction txn(db(), scheme(), /*read_only=*/true);
  Oid oid = 0;
  EXPECT_FALSE(txn.Insert(table_, pk_, "x", "y", &oid).ok());
  txn.Abort();
}

TEST_P(EngineTest, ManyRecordsSurviveMixedTraffic) {
  constexpr int kN = 2000;
  for (int batch = 0; batch < kN; batch += 100) {
    Transaction txn(db(), scheme());
    for (int i = batch; i < batch + 100; ++i) {
      char key[16];
      std::snprintf(key, sizeof key, "bulk%06d", i);
      ASSERT_TRUE(txn.Insert(table_, pk_, key, std::to_string(i), nullptr).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db(), scheme());
  int count = 0;
  ASSERT_TRUE(txn.Scan(pk_, "bulk", "bulk999999", -1,
                       [&](const Slice&, const Slice&) {
                         ++count;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(count, kN);
  EXPECT_TRUE(txn.Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EngineTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc),
                         testing::SchemeParamName);

}  // namespace
}  // namespace ermia
