// Flight-recorder tracing (observability): ring wraparound and drop
// accounting, sampling, the binary dump → decoder round trip (including the
// Chrome trace-event export fed to Perfetto), slow-transaction capture, the
// ERMIA_TRACE environment override, and the fatal-signal post-mortem dump.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"
#include "trace/trace.h"
#include "trace/trace_reader.h"

namespace ermia {
namespace {

// Balanced-brace JSON sanity check shared with the metrics suite's idiom.
void ExpectBalancedJson(const std::string& json) {
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
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// Every trace test owns the process-global recorder for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Configure(TraceMode::kOff, 64);
    trace::ResetForTest();
  }
  void TearDown() override {
    trace::Configure(TraceMode::kOff, 64);
    trace::ConfigureSlowTxnSink(0, std::string());
    trace::ResetForTest();
  }
};

TEST_F(TraceTest, RecordLayoutAndMetaPacking) {
  EXPECT_EQ(sizeof(trace::Record), 32u);
  const uint64_t meta = trace::PackMeta(0xdeadbeef, trace::Event::kTxnCommit,
                                        0x1234);
  EXPECT_EQ(meta >> 32, 0xdeadbeefull);
  EXPECT_EQ((meta >> 16) & 0xffff,
            static_cast<uint64_t>(trace::Event::kTxnCommit));
  EXPECT_EQ(meta & 0xffff, 0x1234ull);
}

TEST_F(TraceTest, RingWrapOverwritesOldestAndCountsDrops) {
  trace::Configure(TraceMode::kAll, 1);
  const uint64_t total = 3 * trace::kRingEvents;
  for (uint64_t i = 0; i < total; ++i) {
    trace::Emit(trace::Event::kTxnRead, /*txn=*/7, /*a=*/i, /*b=*/0);
  }
  EXPECT_EQ(trace::TotalRecorded(), total);
  EXPECT_EQ(trace::TotalDropped(), total - trace::kRingEvents);

  const std::string dir = testing::MakeTempDir();
  const std::string path = dir + "/wrap.bin";
  ASSERT_TRUE(trace::DumpToFile(path).ok());
  trace::TraceDump dump;
  ASSERT_TRUE(trace::ReadTraceDump(path, &dump).ok());
  EXPECT_EQ(dump.total_recorded, total);
  EXPECT_EQ(dump.total_dropped, total - trace::kRingEvents);
  ASSERT_EQ(dump.events.size(), trace::kRingEvents);
  // The survivors are exactly the newest kRingEvents records, oldest first.
  for (size_t k = 0; k < dump.events.size(); ++k) {
    EXPECT_EQ(dump.events[k].a, total - trace::kRingEvents + k);
  }
  testing::RemoveDir(dir);
}

TEST_F(TraceTest, SampleTxnPicksOneInN) {
  trace::Configure(TraceMode::kSampled, 4);
  // Fresh thread: the per-thread sequence starts at zero there, making the
  // 1-in-4 phase deterministic.
  int sampled = 0;
  std::thread t([&] {
    for (int i = 0; i < 8; ++i) {
      if (trace::SampleTxn()) ++sampled;
    }
    ThreadRegistry::Deregister();
  });
  t.join();
  EXPECT_EQ(sampled, 2);

  trace::Configure(TraceMode::kAll, 4);
  EXPECT_TRUE(trace::SampleTxn());
  trace::Configure(TraceMode::kOff, 4);
  EXPECT_FALSE(trace::SampleTxn());
}

TEST_F(TraceTest, MultiThreadDumpMergesAndSortsByTime) {
  trace::Configure(TraceMode::kAll, 1);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100;
  std::vector<std::thread> threads;
  std::atomic<int> registered{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &registered] {
      // Claim a registry slot, then wait for the others: slots are recycled
      // on Deregister, and distinct concurrent slots is what the merge tests.
      ThreadRegistry::MyId();
      registered.fetch_add(1);
      while (registered.load() < kThreads) std::this_thread::yield();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trace::Emit(trace::Event::kTxnUpdate, /*txn=*/100 + t, /*a=*/i, 0);
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();

  const std::string dir = testing::MakeTempDir();
  const std::string path = dir + "/multi.bin";
  ASSERT_TRUE(trace::DumpToFile(path).ok());
  trace::TraceDump dump;
  ASSERT_TRUE(trace::ReadTraceDump(path, &dump).ok());
  ASSERT_EQ(dump.events.size(), kThreads * kPerThread);
  EXPECT_EQ(dump.threads.size(), static_cast<size_t>(kThreads));
  // Global event stream is time-ordered and each txn's records all survive.
  uint64_t per_txn[kThreads] = {};
  for (size_t k = 0; k < dump.events.size(); ++k) {
    if (k > 0) EXPECT_GE(dump.events[k].tsc, dump.events[k - 1].tsc);
    const uint64_t txn = dump.events[k].txn;
    ASSERT_GE(txn, 100u);
    ASSERT_LT(txn, 100u + kThreads);
    ++per_txn[txn - 100];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_txn[t], kPerThread);
  testing::RemoveDir(dir);
}

// Engine-level round trip: run traced transactions across all four schemes
// (plus a forced abort and a checkpoint), dump, decode, and export to Chrome
// trace JSON — the exact artifact loaded into Perfetto.
TEST_F(TraceTest, EngineRoundTripToChromeTraceJson) {
  EngineConfig config;
  config.trace_mode = TraceMode::kAll;
  testing::TempDb db(config);
  ASSERT_TRUE(db->Open().ok());
  Table* table = db->CreateTable("t");
  Index* pk = db->CreateIndex(table, "t_pk");

  Oid x = 0;
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(table, pk, "x", "0", &x).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (CcScheme scheme : {CcScheme::kSi, CcScheme::kSiSsn, CcScheme::kOcc,
                          CcScheme::k2pl}) {
    Transaction txn(db.get(), scheme);
    Slice v;
    ASSERT_TRUE(txn.Read(table, x, &v).ok());
    ASSERT_TRUE(txn.Update(table, x, "1").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    // First-updater-wins conflict: t2's abort must reach the trace.
    Transaction t1(db.get(), CcScheme::kSi);
    Transaction t2(db.get(), CcScheme::kSi);
    ASSERT_TRUE(t1.Update(table, x, "t1").ok());
    ASSERT_TRUE(t2.Update(table, x, "t2").IsConflict());
    t2.Abort();
    ASSERT_TRUE(t1.Commit().ok());
  }
  ASSERT_TRUE(db->TakeCheckpoint(nullptr).ok());

  const std::string path = db.dir() + "/roundtrip.bin";
  ASSERT_TRUE(db->DumpTrace(path).ok());

  trace::TraceDump dump;
  ASSERT_TRUE(trace::ReadTraceDump(path, &dump).ok());
  ASSERT_FALSE(dump.events.empty());
  EXPECT_GT(dump.cycles_per_ns, 0.0);
  int begins = 0, commits = 0, aborts = 0, certifies = 0, ckpt = 0;
  for (const auto& e : dump.events) {
    switch (e.event) {
      case trace::Event::kTxnBegin: ++begins; break;
      case trace::Event::kTxnCommit: ++commits; break;
      case trace::Event::kTxnAbort: ++aborts; break;
      case trace::Event::kCertifyBegin: ++certifies; break;
      case trace::Event::kCkptBegin: ++ckpt; break;
      default: break;
    }
  }
  EXPECT_GE(begins, 7);     // insert + 4 schemes + conflict pair
  EXPECT_GE(commits, 6);
  EXPECT_GE(aborts, 1);
  EXPECT_GE(certifies, 3);  // SSN + OCC + 2PL certification phases
  EXPECT_EQ(ckpt, 1);

  const std::string json = trace::ToChromeTraceJson(dump);
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"txn SI\""), std::string::npos);
  EXPECT_NE(json.find("\"txn OCC\""), std::string::npos);
  EXPECT_NE(json.find("\"certify\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("abort:"), std::string::npos);
  EXPECT_NE(json.find("si_first_updater_wins"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST_F(TraceTest, RecorderGaugesSurfaceThroughMetrics) {
  EngineConfig config;
  config.trace_mode = TraceMode::kAll;
  testing::TempDb db(config);
  ASSERT_TRUE(db->Open().ok());
  Table* table = db->CreateTable("t");
  Index* pk = db->CreateIndex(table, "t_pk");
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(table, pk, "k", "v", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  const metrics::MetricsSnapshot snap = db->SnapshotMetrics();
  EXPECT_GT(snap.counter(metrics::Ctr::kTraceEventsRecorded), 0u);
  EXPECT_EQ(snap.counter(metrics::Ctr::kTraceEventsDropped),
            trace::TotalDropped());
}

TEST_F(TraceTest, SlowTxnCaptureWritesJsonLine) {
  const std::string dir = testing::MakeTempDir();
  const std::string sidecar = dir + "/slow.jsonl";
  {
    EngineConfig config;
    config.trace_mode = TraceMode::kAll;
    config.trace_slow_txn_us = 500;  // anything that sleeps 2ms qualifies
    config.trace_slow_txn_path = sidecar;
    testing::TempDb db(config);
    ASSERT_TRUE(db->Open().ok());
    Table* table = db->CreateTable("t");
    Index* pk = db->CreateIndex(table, "t_pk");
    Oid oid = 0;
    {
      Transaction txn(db.get(), CcScheme::kSi);
      ASSERT_TRUE(txn.Insert(table, pk, "k", "v", &oid).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    {
      Transaction txn(db.get(), CcScheme::kSi);
      Slice v;
      ASSERT_TRUE(txn.Read(table, oid, &v).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ASSERT_TRUE(txn.Update(table, oid, "slow").ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
  }
  std::ifstream in(sidecar);
  ASSERT_TRUE(in.good());
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ExpectBalancedJson(line);
    EXPECT_NE(line.find("\"duration_us\""), std::string::npos);
    EXPECT_NE(line.find("\"scheme\":\"ERMIA-SI\""), std::string::npos);
    if (line.find("\"name\":\"update\"") != std::string::npos &&
        line.find("\"name\":\"commit\"") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no slow-txn line carried the update+commit events";
  testing::RemoveDir(dir);
}

TEST_F(TraceTest, CrashHandlerDumpsPostMortem) {
  const std::string dir = testing::MakeTempDir();
  const std::string path = dir + "/crash.bin";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record a few events, then die by SIGABRT. The handler must dump
    // the rings and re-raise so the wait status still shows the signal.
    trace::Configure(TraceMode::kAll, 1);
    trace::InstallCrashHandler(path);
    for (uint64_t i = 0; i < 16; ++i) {
      trace::Emit(trace::Event::kTxnRead, /*txn=*/42, /*a=*/i, /*b=*/0);
    }
    ::raise(SIGABRT);
    ::_exit(0);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  trace::TraceDump dump;
  ASSERT_TRUE(trace::ReadTraceDump(path, &dump).ok());
  // Parent-side events from this test fixture are reset, so the child's 16
  // reads dominate; at minimum they must all be present.
  int reads = 0;
  for (const auto& e : dump.events) {
    if (e.event == trace::Event::kTxnRead && e.txn == 42) ++reads;
  }
  EXPECT_GE(reads, 16);
  testing::RemoveDir(dir);
}

}  // namespace
}  // namespace ermia
