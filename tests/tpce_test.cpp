// TPC-E workload tests: loader invariants (holding summaries match holdings,
// trades indexed by account), serial execution of all 11 transaction types,
// the AssetEval/TradeResult interplay, and a short mixed concurrent run.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.h"
#include "workloads/tpce/tpce_workload.h"

namespace ermia {
namespace tpce {
namespace {

class TpceTest : public ::testing::TestWithParam<CcScheme> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<ermia::testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    cfg_.customers = 5000;
    cfg_.density = 0.05;  // 250 customers minimum-clamped to 250? -> 250
    tables_ = CreateTpceSchema(db_->get());
    ASSERT_TRUE(LoadTpce(db_->get(), tables_, cfg_, &loaded_trades_).ok());
    next_trade_id_.store(loaded_trades_ + 1);
  }

  TpceCtx MakeCtx(FastRandom* rng) {
    return TpceCtx{db_->get(),      &tables_, &cfg_, GetParam(), 0, rng,
                   &next_trade_id_, &seq_};
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

  std::unique_ptr<ermia::testing::TempDb> db_;
  TpceConfig cfg_;
  TpceTables tables_;
  uint64_t loaded_trades_ = 0;
  std::atomic<uint64_t> next_trade_id_{1};
  std::atomic<uint64_t> seq_{0};
};

TEST_P(TpceTest, LoaderPopulationCounts) {
  EXPECT_EQ(CountRange(tables_.customer_pk), cfg_.num_customers());
  EXPECT_EQ(CountRange(tables_.account_pk), cfg_.num_accounts());
  EXPECT_EQ(CountRange(tables_.broker_pk), cfg_.num_brokers());
  EXPECT_EQ(CountRange(tables_.security_pk), cfg_.num_securities());
  EXPECT_EQ(CountRange(tables_.last_trade_pk), cfg_.num_securities());
  EXPECT_EQ(CountRange(tables_.trade_pk), loaded_trades_);
  EXPECT_EQ(CountRange(tables_.trade_by_acct), loaded_trades_);
  EXPECT_EQ(CountRange(tables_.holding_pk),
            cfg_.num_accounts() * cfg_.holdings_per_account);
  EXPECT_EQ(CountRange(tables_.exchange_pk), cfg_.num_exchanges());
  EXPECT_EQ(CountRange(tables_.company_pk), cfg_.num_companies());
  EXPECT_EQ(CountRange(tables_.daily_market_pk),
            cfg_.num_securities() * cfg_.daily_market_days);
  EXPECT_EQ(CountRange(tables_.watch_list_pk), cfg_.num_customers());
  EXPECT_EQ(CountRange(tables_.watch_item_pk),
            cfg_.num_customers() * cfg_.watch_items_per_list);
  EXPECT_EQ(CountRange(tables_.trade_type_pk), cfg_.num_trade_types());
  EXPECT_EQ(CountRange(tables_.status_type_pk), cfg_.num_status_types());
}

TEST_P(TpceTest, SecurityReferencesResolve) {
  // Every security's company and exchange foreign keys resolve, and each
  // security has its full price history.
  Transaction txn(db_->get(), CcScheme::kSi);
  size_t checked = 0;
  ASSERT_TRUE(txn.Scan(tables_.security_pk, Slice(), Slice(), 50,
                       [&](const Slice&, const Slice& value) {
                         SecurityRow sr;
                         if (!LoadRow(value, &sr)) return true;
                         Slice raw;
                         EXPECT_TRUE(txn.Get(tables_.company_pk,
                                             CompanyKey(sr.s_co_id).slice(),
                                             &raw)
                                         .ok());
                         EXPECT_TRUE(txn.Get(tables_.exchange_pk,
                                             ExchangeKey(sr.s_ex_id).slice(),
                                             &raw)
                                         .ok());
                         ++checked;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(checked, 50u);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(TpceTest, WatchListItemsPointAtRealSecurities) {
  Transaction txn(db_->get(), CcScheme::kSi);
  size_t checked = 0;
  ASSERT_TRUE(txn.Scan(tables_.watch_item_pk, Slice(), Slice(), 100,
                       [&](const Slice&, const Slice& value) {
                         WatchItemRow wi;
                         if (!LoadRow(value, &wi)) return true;
                         EXPECT_GE(wi.wi_s_id, 1u);
                         EXPECT_LE(wi.wi_s_id, cfg_.num_securities());
                         ++checked;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(checked, 100u);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(TpceTest, HoldingSummariesMatchHoldings) {
  // Consistency: per (account, security), HoldingSummary.qty equals the sum
  // of Holding quantities.
  Transaction txn(db_->get(), CcScheme::kSi);
  size_t checked = 0;
  ASSERT_TRUE(
      txn.Scan(tables_.holding_summary_pk, Slice(), Slice(), -1,
               [&](const Slice& key, const Slice& value) {
                 HoldingSummaryRow hs;
                 if (!LoadRow(value, &hs)) return true;
                 KeyDecoder dec(key);
                 const uint32_t ca = dec.U32();
                 const uint32_t s = dec.U32();
                 int64_t sum = 0;
                 txn.Scan(tables_.holding_pk, HoldingKey(ca, s, 0).slice(),
                          HoldingKey(ca, s, UINT64_MAX).slice(), -1,
                          [&](const Slice&, const Slice& hv) {
                            HoldingRow h;
                            if (LoadRow(hv, &h)) sum += h.h_qty;
                            return true;
                          });
                 EXPECT_EQ(sum, hs.hs_qty) << "ca=" << ca << " s=" << s;
                 ++checked;
                 return checked < 200;  // bounded spot check
               })
          .ok());
  EXPECT_GT(checked, 50u);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(TpceTest, AllTransactionTypesRun) {
  FastRandom rng(1);
  TpceCtx ctx = MakeCtx(&rng);
  EXPECT_TRUE(TxnBrokerVolume(ctx).ok());
  EXPECT_TRUE(TxnCustomerPosition(ctx).ok());
  EXPECT_TRUE(TxnMarketFeed(ctx).ok());
  EXPECT_TRUE(TxnMarketWatch(ctx).ok());
  EXPECT_TRUE(TxnSecurityDetail(ctx).ok());
  EXPECT_TRUE(TxnTradeLookup(ctx).ok());
  EXPECT_TRUE(TxnTradeOrder(ctx).ok());
  EXPECT_TRUE(TxnTradeResult(ctx).ok());
  EXPECT_TRUE(TxnTradeStatus(ctx).ok());
  EXPECT_TRUE(TxnTradeUpdate(ctx).ok());
  EXPECT_TRUE(TxnAssetEval(ctx, 0.1).ok());
}

TEST_P(TpceTest, TradeOrderThenResultSettles) {
  FastRandom rng(2);
  TpceCtx ctx = MakeCtx(&rng);
  const size_t trades_before = CountRange(tables_.trade_pk);
  int orders = 0;
  for (int i = 0; i < 10; ++i) {
    if (TxnTradeOrder(ctx).ok()) ++orders;
  }
  EXPECT_GT(orders, 0);
  EXPECT_EQ(CountRange(tables_.trade_pk), trades_before + orders);
  // Settle: repeatedly run TradeResult; pending trades become completed.
  for (int i = 0; i < 50; ++i) (void)TxnTradeResult(ctx);
  // Count pending trades among the newly created window.
  Transaction txn(db_->get(), CcScheme::kSi);
  int pending = 0;
  ASSERT_TRUE(txn.Scan(tables_.trade_pk, TradeKey(trades_before + 1).slice(),
                       Slice(), -1,
                       [&](const Slice&, const Slice& v) {
                         TradeRow tr;
                         if (LoadRow(v, &tr) && tr.t_status == kTradePending) {
                           ++pending;
                         }
                         return true;
                       })
                  .ok());
  EXPECT_LT(pending, orders);  // at least one settled
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(TpceTest, AssetEvalInsertsHistory) {
  FastRandom rng(3);
  TpceCtx ctx = MakeCtx(&rng);
  const size_t before = CountRange(tables_.asset_history_pk);
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    if (TxnAssetEval(ctx, 0.2).ok()) ++committed;
  }
  EXPECT_GT(committed, 0);
  EXPECT_EQ(CountRange(tables_.asset_history_pk), before + committed);
}

TEST_P(TpceTest, MixedConcurrentRun) {
  TpceWorkload workload(cfg_, TpceRunOptions{/*hybrid=*/true,
                                             /*asset_eval_size=*/0.05});
  ermia::testing::TempDb fresh;
  ASSERT_TRUE(fresh->Open().ok());
  ASSERT_TRUE(workload.Load(fresh.get()).ok());
  constexpr int kThreads = 3;
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FastRandom rng(t + 21);
      for (int i = 0; i < 80; ++i) {
        const size_t type = workload.PickTxnType(rng);
        if (workload.RunTxn(fresh.get(), GetParam(), type, t, kThreads, rng)
                .ok()) {
          commits.fetch_add(1);
        }
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(commits.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TpceTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc),
                         ermia::testing::SchemeParamName);

}  // namespace
}  // namespace tpce
}  // namespace ermia
