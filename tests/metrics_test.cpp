// Metrics layer (observability): sharded counters sum correctly under
// concurrent writers, snapshots stay per-counter monotone, every CC scheme's
// forced aborts land in the right AbortReason bucket (and the per-reason
// counts sum to the total by construction), histograms bucket and aggregate,
// and the JSON export has the documented shape.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/json.h"
#include "metrics/metrics.h"
#include "test_util.h"

namespace ermia {
namespace {

TEST(EngineMetricsTest, ShardedCountersSumAcrossThreads) {
  metrics::EngineMetrics m;
  constexpr int kThreads = 8;
  constexpr uint64_t kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        m.Inc(metrics::Ctr::kTxnCommits);
        m.Inc(metrics::Ctr::kLogFlushedBytes, 3);
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  metrics::MetricsSnapshot snap = m.Snapshot();
  EXPECT_EQ(snap.counter(metrics::Ctr::kTxnCommits), kThreads * kIncrements);
  EXPECT_EQ(snap.counter(metrics::Ctr::kLogFlushedBytes),
            kThreads * kIncrements * 3);
}

TEST(EngineMetricsTest, SnapshotMonotoneUnderConcurrentIncrements) {
  metrics::EngineMetrics m;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        m.Inc(metrics::Ctr::kTxnCommits);
        m.Observe(metrics::Hist::kLogFlushLatencyUs, 17);
      }
      ThreadRegistry::Deregister();
    });
  }
  metrics::MetricsSnapshot prev = m.Snapshot();
  for (int i = 0; i < 200; ++i) {
    metrics::MetricsSnapshot cur = m.Snapshot();
    // Monotone per counter (below the sampled-gauge boundary) and per
    // histogram aggregate, even while writers race the reader.
    for (uint32_t c = 0; c < metrics::kFirstSampledGauge; ++c) {
      EXPECT_GE(cur.counters[c], prev.counters[c]) << metrics::CtrName(
          static_cast<metrics::Ctr>(c));
    }
    const auto& h = cur.hist(metrics::Hist::kLogFlushLatencyUs);
    const auto& hp = prev.hist(metrics::Hist::kLogFlushLatencyUs);
    EXPECT_GE(h.count, hp.count);
    EXPECT_GE(h.sum, hp.sum);
    prev = cur;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(EngineMetricsTest, HistogramBucketsAndPercentiles) {
  EXPECT_EQ(metrics::EngineMetrics::BucketFor(0), 0u);
  EXPECT_EQ(metrics::EngineMetrics::BucketFor(1), 1u);
  EXPECT_EQ(metrics::EngineMetrics::BucketFor(2), 2u);
  EXPECT_EQ(metrics::EngineMetrics::BucketFor(3), 2u);
  EXPECT_EQ(metrics::EngineMetrics::BucketFor(4), 3u);
  metrics::EngineMetrics m;
  for (uint64_t v = 1; v <= 1000; ++v) {
    m.Observe(metrics::Hist::kGcChainLength, v);
  }
  metrics::MetricsSnapshot snap = m.Snapshot();
  const auto& h = snap.hist(metrics::Hist::kGcChainLength);
  EXPECT_EQ(h.count, 1000u);
  EXPECT_EQ(h.sum, 1000u * 1001 / 2);
  EXPECT_NEAR(h.mean(), 500.5, 0.1);
  // Log2 buckets bound the percentile loosely; p50 of 1..1000 is ~500,
  // which lives in the [512, 1024) bucket's range.
  EXPECT_GE(h.Percentile(50), 256.0);
  EXPECT_LE(h.Percentile(50), 1024.0);
  EXPECT_LE(h.Percentile(99), 1024.0);
}

TEST(EngineMetricsTest, HistogramEdgeSemantics) {
  using EM = metrics::EngineMetrics;
  // Zero has its own bucket whose range is [0, 1).
  EXPECT_EQ(EM::BucketFor(0), 0u);
  EXPECT_EQ(EM::BucketLow(0), 0u);
  EXPECT_EQ(EM::BucketLow(1), 1u);
  // Exact powers of two open a new bucket — BucketFor(2^b) == b+1 — and that
  // bucket's lower bound is the value itself, so boundaries never misbucket.
  for (size_t b = 0; b < 62; ++b) {
    const uint64_t v = 1ull << b;
    EXPECT_EQ(EM::BucketFor(v), b + 1) << "value " << v;
    EXPECT_EQ(EM::BucketLow(b + 1), v);
    if (v > 1) EXPECT_EQ(EM::BucketFor(v - 1), b) << "value " << (v - 1);
  }
  // Everything too large for a dedicated bucket lands in the overflow bucket.
  EXPECT_EQ(EM::BucketFor(1ull << 63), metrics::kHistBuckets - 1);
  EXPECT_EQ(EM::BucketFor(~0ull), metrics::kHistBuckets - 1);

  metrics::EngineMetrics m;
  m.Observe(metrics::Hist::kGcChainLength, 0);
  m.Observe(metrics::Hist::kGcChainLength, ~0ull);
  metrics::MetricsSnapshot snap = m.Snapshot();
  const auto& h = snap.hist(metrics::Hist::kGcChainLength);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[metrics::kHistBuckets - 1], 1u);
  EXPECT_EQ(h.count, 2u);
  // The overflow bucket has no finite upper bound.
  EXPECT_EQ(h.MaxBucketHigh(), ~0ull);
}

TEST(EngineMetricsTest, PercentileInterpolatesInsideBucket) {
  metrics::EngineMetrics m;
  for (int i = 0; i < 100; ++i) {
    m.Observe(metrics::Hist::kGcChainLength, 4);
  }
  metrics::MetricsSnapshot snap = m.Snapshot();
  const auto& h = snap.hist(metrics::Hist::kGcChainLength);
  // All mass sits in the [4, 8) bucket: every percentile interpolates inside
  // it and never escapes the bucket's bounds.
  EXPECT_GE(h.Percentile(1), 4.0);
  EXPECT_GE(h.Percentile(50), 4.0);
  EXPECT_LE(h.Percentile(50), 8.0);
  EXPECT_LE(h.Percentile(100), 8.0);
  EXPECT_LT(h.Percentile(1), h.Percentile(99));
  EXPECT_EQ(h.MaxBucketHigh(), 8u);
  // Empty histogram: percentiles degrade to zero rather than reading junk.
  metrics::HistSnapshot empty;
  EXPECT_EQ(empty.Percentile(50), 0.0);
  EXPECT_EQ(empty.MaxBucketHigh(), 0u);
}

class MetricsDbTest : public ::testing::Test {
 protected:
  void SetUp() override { Init(EngineConfig{}); }

  void Init(EngineConfig config) {
    db_ = std::make_unique<testing::TempDb>(config);
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

  uint64_t Aborts(metrics::AbortReason r) {
    return (*db_)->SnapshotMetrics().abort_count(r);
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

TEST_F(MetricsDbTest, CommitAndOperationCounters) {
  const metrics::MetricsSnapshot before = (*db_)->SnapshotMetrics();
  const Oid x = OidOf("x");
  {
    Transaction t(db_->get(), CcScheme::kSi);
    Slice v;
    ASSERT_TRUE(t.Read(table_, x, &v).ok());
    ASSERT_TRUE(t.Update(table_, x, "1").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  const metrics::MetricsSnapshot d =
      (*db_)->SnapshotMetrics().DeltaSince(before);
  EXPECT_EQ(d.counter(metrics::Ctr::kTxnCommits), 2u);  // OidOf + update txn
  // 2 reads: OidOf's GetOid does a visibility-check Read, plus the explicit
  // Read above.
  EXPECT_EQ(d.counter(metrics::Ctr::kTxnReads), 2u);
  EXPECT_EQ(d.counter(metrics::Ctr::kTxnUpdates), 1u);
  EXPECT_EQ(d.aborts_total(), 0u);
}

TEST_F(MetricsDbTest, SsnWriteSkewAbortAttributed) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  const metrics::MetricsSnapshot before = (*db_)->SnapshotMetrics();
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
  ASSERT_FALSE(c1.ok() && c2.ok()) << "write skew committed under SSN";
  const metrics::MetricsSnapshot d =
      (*db_)->SnapshotMetrics().DeltaSince(before);
  ASSERT_GE(d.aborts_total(), 1u);
  // Whichever side lost, the abort must be attributed to SSN's exclusion
  // window (read-, update-, or commit-time detection).
  const uint64_t ssn_aborts =
      d.abort_count(metrics::AbortReason::kSsnExclusionRead) +
      d.abort_count(metrics::AbortReason::kSsnExclusionUpdate) +
      d.abort_count(metrics::AbortReason::kSsnExclusionCommit);
  EXPECT_EQ(ssn_aborts, d.aborts_total());
}

TEST_F(MetricsDbTest, SiFirstUpdaterWinsAbortAttributed) {
  const Oid x = OidOf("x");
  const metrics::MetricsSnapshot before = (*db_)->SnapshotMetrics();
  Transaction t1(db_->get(), CcScheme::kSi);
  Transaction t2(db_->get(), CcScheme::kSi);
  ASSERT_TRUE(t1.Update(table_, x, "t1").ok());
  Status s = t2.Update(table_, x, "t2");
  ASSERT_TRUE(s.IsConflict());
  t2.Abort();
  ASSERT_TRUE(t1.Commit().ok());
  const metrics::MetricsSnapshot d =
      (*db_)->SnapshotMetrics().DeltaSince(before);
  EXPECT_EQ(d.abort_count(metrics::AbortReason::kSiFirstUpdaterWins), 1u);
  EXPECT_EQ(d.aborts_total(), 1u);
}

TEST_F(MetricsDbTest, OccReadValidationAbortAttributed) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  const metrics::MetricsSnapshot before = (*db_)->SnapshotMetrics();
  Transaction t1(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(t1.Read(table_, x, &v).ok());
  ASSERT_TRUE(t1.Update(table_, y, "t1").ok());
  {
    Transaction t2(db_->get(), CcScheme::kOcc);
    ASSERT_TRUE(t2.Update(table_, x, "t2").ok());
    ASSERT_TRUE(t2.Commit().ok());
  }
  Status c = t1.Commit();
  ASSERT_FALSE(c.ok());
  const metrics::MetricsSnapshot d =
      (*db_)->SnapshotMetrics().DeltaSince(before);
  EXPECT_EQ(d.abort_count(metrics::AbortReason::kOccReadValidation), 1u);
  EXPECT_EQ(d.aborts_total(), 1u);
}

TEST_F(MetricsDbTest, ExplicitAbortFallsUnderExplicit) {
  const Oid x = OidOf("x");
  const metrics::MetricsSnapshot before = (*db_)->SnapshotMetrics();
  Transaction t(db_->get(), CcScheme::kSi);
  ASSERT_TRUE(t.Update(table_, x, "doomed").ok());
  t.Abort();  // user rollback, e.g. TPC-C NewOrder's 1%
  const metrics::MetricsSnapshot d =
      (*db_)->SnapshotMetrics().DeltaSince(before);
  EXPECT_EQ(d.abort_count(metrics::AbortReason::kExplicit), 1u);
  EXPECT_EQ(d.aborts_total(), 1u);
}

TEST_F(MetricsDbTest, TidGaugesTrackActivity) {
  metrics::MetricsSnapshot snap = (*db_)->SnapshotMetrics();
  EXPECT_GE(snap.counter(metrics::Ctr::kTidOccupancyHwm), 1u);
  EXPECT_EQ(snap.counter(metrics::Ctr::kTidActiveTxns), 0u);
  Transaction t(db_->get(), CcScheme::kSi);
  snap = (*db_)->SnapshotMetrics();
  EXPECT_GE(snap.counter(metrics::Ctr::kTidActiveTxns), 1u);
  t.Abort();
}

TEST_F(MetricsDbTest, SynchronousCommitFillsFlushHistogram) {
  EngineConfig config;
  config.synchronous_commit = true;
  Init(config);
  const Oid x = OidOf("x");
  for (int i = 0; i < 5; ++i) {
    Transaction t(db_->get(), CcScheme::kSi);
    ASSERT_TRUE(t.Update(table_, x, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  metrics::MetricsSnapshot snap = (*db_)->SnapshotMetrics();
  EXPECT_GT(snap.counter(metrics::Ctr::kLogFlushes), 0u);
  EXPECT_GT(snap.counter(metrics::Ctr::kLogFlushedBytes), 0u);
  EXPECT_GT(snap.hist(metrics::Hist::kLogFlushLatencyUs).count, 0u);
  EXPECT_GT(snap.hist(metrics::Hist::kLogFlushBytes).count, 0u);
}

TEST_F(MetricsDbTest, JsonExportShape) {
  const Oid x = OidOf("x");
  {
    Transaction t(db_->get(), CcScheme::kSi);
    ASSERT_TRUE(t.Update(table_, x, "1").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  (*db_)->gc().RunOnce();
  const metrics::MetricsSnapshot snap = (*db_)->SnapshotMetrics();
  EXPECT_GT(snap.hist(metrics::Hist::kGcPassUs).count, 0u);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"txn_commits\""), std::string::npos);
  EXPECT_NE(json.find("\"abort_reasons\""), std::string::npos);
  EXPECT_NE(json.find("\"si_first_updater_wins\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"log_flush_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"gc_pass_us\""), std::string::npos);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  // Balanced braces/brackets (no nesting errors from the writer).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(MetricsDbTest, ReporterWritesJsonLines) {
  const std::string path = testing::MakeTempDir() + "/metrics.jsonl";
  {
    EngineConfig config;
    config.metrics_report_interval_ms = 20;
    config.metrics_report_path = path;
    Init(config);
    const Oid x = OidOf("x");
    for (int i = 0; i < 3; ++i) {
      Transaction t(db_->get(), CcScheme::kSi);
      ASSERT_TRUE(t.Update(table_, x, "v").ok());
      ASSERT_TRUE(t.Commit().ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    db_.reset();  // Close() stops the reporter, emitting the final delta
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  bool saw_commits = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"seq\""), std::string::npos);
    EXPECT_NE(line.find("\"delta\""), std::string::npos);
    if (line.find("\"txn_commits\":") != std::string::npos &&
        line.find("\"txn_commits\":0") == std::string::npos) {
      saw_commits = true;
    }
  }
  EXPECT_GE(lines, 1u);
  EXPECT_TRUE(saw_commits);
}

TEST_F(MetricsDbTest, ReporterEmitsFinalSnapshotOnShutdown) {
  // An interval far longer than the test: the periodic timer never fires, so
  // the only line in the file is the final delta emitted on Stop(). Runs
  // shorter than one interval must still account for their activity.
  const std::string path = testing::MakeTempDir() + "/final.jsonl";
  {
    EngineConfig config;
    config.metrics_report_interval_ms = 60 * 60 * 1000;
    config.metrics_report_path = path;
    Init(config);
    const Oid x = OidOf("x");
    Transaction t(db_->get(), CcScheme::kSi);
    ASSERT_TRUE(t.Update(table_, x, "v").ok());
    ASSERT_TRUE(t.Commit().ok());
    db_.reset();  // Close() stops the reporter → final delta
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  bool saw_commits = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    if (line.find("\"txn_commits\":") != std::string::npos &&
        line.find("\"txn_commits\":0") == std::string::npos) {
      saw_commits = true;
    }
  }
  EXPECT_EQ(lines, 1u);
  EXPECT_TRUE(saw_commits);
}

TEST(JsonWriterTest, EscapesAndNesting) {
  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("str");
  w.String("a\"b\\c\nd\x01");
  w.Key("num");
  w.Uint(42);
  w.Key("arr");
  w.BeginArray();
  w.Double(1.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"str\":\"a\\\"b\\\\c\\nd\\u0001\",\"num\":42,"
            "\"arr\":[1.5,true,null]}");
}

}  // namespace
}  // namespace ermia
