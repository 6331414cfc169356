// TPC-C workload tests: loader population counts, a subset of the spec's
// consistency conditions (3.3.2.x), serial transaction correctness, the
// hybrid Q2* transaction, and a short multi-threaded consistency run per CC
// scheme.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.h"
#include "workloads/tpcc/tpcc_workload.h"

namespace ermia {
namespace tpcc {
namespace {

class TpccTest : public ::testing::TestWithParam<CcScheme> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<ermia::testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    cfg_.warehouses = 2;
    cfg_.density = 0.02;  // 2000 items, 60 customers/district
    cfg_.hybrid = true;
    tables_ = CreateTpccSchema(db_->get(), /*hybrid=*/true);
    ASSERT_TRUE(LoadTpcc(db_->get(), tables_, cfg_).ok());
  }

  TpccCtx MakeCtx(FastRandom* rng) {
    return TpccCtx{db_->get(), &tables_, &cfg_,  GetParam(),
                   0,          1,        rng,    PartitionPolicy::kLocal,
                   &history_seq_};
  }

  // Sum over an index range of a numeric field extracted by `f`.
  template <typename Row, typename F>
  double SumOver(Index* index, F f) {
    Transaction txn(db_->get(), CcScheme::kSi);
    double sum = 0;
    EXPECT_TRUE(txn.Scan(index, Slice(), Slice(), -1,
                         [&](const Slice&, const Slice& v) {
                           Row row;
                           if (LoadRow(v, &row)) sum += f(row);
                           return true;
                         })
                    .ok());
    EXPECT_TRUE(txn.Commit().ok());
    return sum;
  }

  size_t CountRange(Index* index) {
    Transaction txn(db_->get(), CcScheme::kSi);
    size_t n = 0;
    EXPECT_TRUE(txn.Scan(index, Slice(), Slice(), -1,
                         [&](const Slice&, const Slice&) {
                           ++n;
                           return true;
                         })
                    .ok());
    EXPECT_TRUE(txn.Commit().ok());
    return n;
  }

  // TPC-C consistency condition 1: d_next_o_id - 1 equals the max order id
  // in both ORDER and NEW-ORDER for every district.
  void CheckConsistency() {
    Transaction txn(db_->get(), CcScheme::kSi);
    for (uint32_t w = 1; w <= cfg_.warehouses; ++w) {
      for (uint32_t d = 1; d <= cfg_.districts(); ++d) {
        Slice raw;
        ASSERT_TRUE(
            txn.Get(tables_.district_pk, DistrictKey(w, d).slice(), &raw).ok());
        DistrictRow dr;
        ASSERT_TRUE(LoadRow(raw, &dr));
        uint32_t max_o = 0;
        ASSERT_TRUE(txn.ScanOids(
                           tables_.order_pk, OrderKey(w, d, 0).slice(),
                           OrderKey(w, d, UINT32_MAX).slice(), -1,
                           [&](const Slice& key, Oid) {
                             KeyDecoder dec(key);
                             dec.U32();
                             dec.U32();
                             max_o = dec.U32();
                             return true;
                           })
                        .ok());
        EXPECT_EQ(static_cast<uint32_t>(dr.d_next_o_id) - 1, max_o)
            << "w=" << w << " d=" << d;

        // Condition 3.3.2.4: sum of o_ol_cnt over ORDER equals the number of
        // ORDER-LINE rows for the district.
        int64_t ol_cnt_sum = 0;
        ASSERT_TRUE(txn.Scan(tables_.order_pk, OrderKey(w, d, 0).slice(),
                             OrderKey(w, d, UINT32_MAX).slice(), -1,
                             [&](const Slice&, const Slice& value) {
                               OrderRow orow;
                               if (LoadRow(value, &orow)) {
                                 ol_cnt_sum += orow.o_ol_cnt;
                               }
                               return true;
                             })
                        .ok());
        int64_t ol_rows = 0;
        ASSERT_TRUE(txn.ScanOids(tables_.orderline_pk,
                                 OrderLineKey(w, d, 0, 0).slice(),
                                 OrderLineKey(w, d, UINT32_MAX, UINT32_MAX)
                                     .slice(),
                                 -1,
                                 [&](const Slice&, Oid) {
                                   ++ol_rows;
                                   return true;
                                 })
                        .ok());
        EXPECT_EQ(ol_cnt_sum, ol_rows) << "w=" << w << " d=" << d;
      }
    }
    EXPECT_TRUE(txn.Commit().ok());
  }

  std::unique_ptr<ermia::testing::TempDb> db_;
  TpccConfig cfg_;
  TpccTables tables_;
  std::atomic<uint64_t> history_seq_{0};
};

TEST_P(TpccTest, LoaderPopulationCounts) {
  EXPECT_EQ(CountRange(tables_.item_pk), cfg_.items());
  EXPECT_EQ(CountRange(tables_.warehouse_pk), cfg_.warehouses);
  EXPECT_EQ(CountRange(tables_.district_pk),
            cfg_.warehouses * cfg_.districts());
  EXPECT_EQ(CountRange(tables_.customer_pk),
            cfg_.warehouses * cfg_.districts() * cfg_.customers_per_district());
  EXPECT_EQ(CountRange(tables_.customer_name),
            CountRange(tables_.customer_pk));
  EXPECT_EQ(CountRange(tables_.stock_pk), cfg_.warehouses * cfg_.items());
  EXPECT_EQ(CountRange(tables_.order_pk),
            cfg_.warehouses * cfg_.districts() *
                cfg_.initial_orders_per_district());
  EXPECT_EQ(CountRange(tables_.supplier_pk), cfg_.suppliers());
  EXPECT_EQ(CountRange(tables_.nation_pk), cfg_.nations());
  EXPECT_EQ(CountRange(tables_.region_pk), cfg_.regions());
  // ~30% of orders are undelivered (in NEW-ORDER).
  const size_t orders = CountRange(tables_.order_pk);
  const size_t newords = CountRange(tables_.neworder_pk);
  EXPECT_NEAR(static_cast<double>(newords) / orders, 0.3, 0.02);
  CheckConsistency();
}

TEST_P(TpccTest, NewOrderAdvancesDistrictAndInsertsRows) {
  const size_t orders_before = CountRange(tables_.order_pk);
  FastRandom rng(1);
  TpccCtx ctx = MakeCtx(&rng);
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    if (TxnNewOrder(ctx).ok()) ++committed;
  }
  EXPECT_GT(committed, 10);  // only the ~1% intentional rollbacks abort
  EXPECT_EQ(CountRange(tables_.order_pk), orders_before + committed);
  CheckConsistency();
}

TEST_P(TpccTest, PaymentPreservesYtdBalance) {
  // Sum of warehouse YTDs grows by exactly the committed payment amounts;
  // verify via the money-conservation relation w_ytd == sum(d_ytd).
  FastRandom rng(2);
  TpccCtx ctx = MakeCtx(&rng);
  int committed = 0;
  for (int i = 0; i < 30; ++i) {
    if (TxnPayment(ctx).ok()) ++committed;
  }
  EXPECT_GT(committed, 20);
  const double w_ytd =
      SumOver<WarehouseRow>(tables_.warehouse_pk,
                            [](const WarehouseRow& r) { return r.w_ytd; });
  const double d_ytd = SumOver<DistrictRow>(
      tables_.district_pk, [](const DistrictRow& r) { return r.d_ytd; });
  EXPECT_NEAR(w_ytd, d_ytd, 0.01);  // TPC-C consistency condition 2/3 analog
}

TEST_P(TpccTest, OrderStatusAndStockLevelCommit) {
  FastRandom rng(3);
  TpccCtx ctx = MakeCtx(&rng);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(TxnOrderStatus(ctx).ok());
    EXPECT_TRUE(TxnStockLevel(ctx).ok());
  }
}

TEST_P(TpccTest, DeliveryDrainsNewOrders) {
  FastRandom rng(4);
  TpccCtx ctx = MakeCtx(&rng);
  const size_t before = CountRange(tables_.neworder_pk);
  ASSERT_GT(before, 0u);
  int committed = 0;
  for (int i = 0; i < 5 && CountRange(tables_.neworder_pk) > 0; ++i) {
    if (TxnDelivery(ctx).ok()) ++committed;
  }
  EXPECT_GT(committed, 0);
  EXPECT_LT(CountRange(tables_.neworder_pk), before);
}

TEST_P(TpccTest, Q2StarCommitsAndRestocks) {
  FastRandom rng(5);
  TpccCtx ctx = MakeCtx(&rng);
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    if (TxnQ2Star(ctx, 0.5).ok()) ++committed;
  }
  EXPECT_GT(committed, 0);
  // Restocked rows have quantity >= threshold now; a second pass with the
  // same region may still find others, but the transaction logic held.
}

TEST_P(TpccTest, MixedConcurrentRunStaysConsistent) {
  TpccWorkload workload(cfg_, TpccRunOptions{/*hybrid=*/true,
                                             /*q2_fraction=*/0.05,
                                             PartitionPolicy::kLocal});
  // Reuse the already loaded schema via a fresh workload object? The
  // workload loads its own tables; run it against a fresh database.
  ermia::testing::TempDb fresh;
  ASSERT_TRUE(fresh->Open().ok());
  ASSERT_TRUE(workload.Load(fresh.get()).ok());
  constexpr int kThreads = 3;
  std::atomic<uint64_t> commits{0}, aborts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FastRandom rng(t + 11);
      for (int i = 0; i < 60; ++i) {
        const size_t type = workload.PickTxnType(rng);
        Status s = workload.RunTxn(fresh.get(), GetParam(), type, t, kThreads,
                                   rng);
        (s.ok() ? commits : aborts).fetch_add(1);
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(commits.load(), 0u);
  // Money conservation after concurrent traffic.
  Transaction txn(fresh.get(), CcScheme::kSi);
  double w_ytd = 0, d_ytd = 0;
  ASSERT_TRUE(txn.Scan(workload.tables().warehouse_pk, Slice(), Slice(), -1,
                       [&](const Slice&, const Slice& v) {
                         WarehouseRow r;
                         if (LoadRow(v, &r)) w_ytd += r.w_ytd;
                         return true;
                       })
                  .ok());
  ASSERT_TRUE(txn.Scan(workload.tables().district_pk, Slice(), Slice(), -1,
                       [&](const Slice&, const Slice& v) {
                         DistrictRow r;
                         if (LoadRow(v, &r)) d_ytd += r.d_ytd;
                         return true;
                       })
                  .ok());
  EXPECT_NEAR(w_ytd, d_ytd, 0.01);
  EXPECT_TRUE(txn.Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TpccTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc),
                         ermia::testing::SchemeParamName);

}  // namespace
}  // namespace tpcc
}  // namespace ermia
