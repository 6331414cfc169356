// Engine edge cases: stats/introspection, environment config overrides, the
// background checkpoint daemon, GC behavior with pinned old snapshots,
// value-size extremes, many tables/indexes, update churn with chain trimming,
// and transaction object lifetime quirks (destructor abort,
// commit-after-finish misuse guards).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"

namespace ermia {
namespace {

TEST(EngineStatsTest, CountersMoveTheRightWay) {
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  EXPECT_EQ(db->tables().size(), 1u);
  EXPECT_EQ(db->index_list().size(), 1u);
  const uint64_t offset_before = db->log().CurrentOffset();
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    // An abort before reservation discards the private staging outright (no
    // skip block needed); a post-reservation validation failure converts the
    // reservation into a skip block. Build the latter with an OCC reader
    // whose footprint gets overwritten after it buffers a write.
    Transaction reader(db.get(), CcScheme::kOcc);
    Oid oid = 0;
    Slice v;
    ASSERT_TRUE(reader.GetOid(pk, "k", &oid).ok());
    {
      Transaction writer(db.get(), CcScheme::kSi);
      ASSERT_TRUE(writer.Update(t, oid, "overwritten").ok());
      ASSERT_TRUE(writer.Commit().ok());
    }
    ASSERT_TRUE(reader.Update(t, oid, "loser").ok());
    ASSERT_FALSE(reader.Commit().ok());  // validation fails post-reservation
  }
  db->log().WaitForDurable(db->log().CurrentOffset());
  const uint64_t offset_after = db->log().CurrentOffset();
  EXPECT_GT(offset_after, offset_before);
  EXPECT_GE(db->log().DurableOffset(), offset_after);
  EXPECT_GE(db->SnapshotMetrics().counter(metrics::Ctr::kLogSkipBlocks), 1u);
}

// The EngineConfig environment overrides (engine/database.cpp kEnvOverrides):
// every accepted spelling of every variable makes exactly its documented
// change — checked from two opposite base configs, so a value that should
// leave a field "as configured" cannot pass by coincidence — and a value no
// row accepts aborts construction with a message naming the variable.
TEST(EnvOverrideTest, AcceptedValuesApplyAndUnknownValuesDie) {
  constexpr const char* kVars[] = {"ERMIA_VERSION_ALLOCATOR", "ERMIA_TRACE",
                                   "ERMIA_SSN_READOPT", "ERMIA_OVERLOAD"};
  // Start from a clean environment (the suite may run under one of these,
  // e.g. ERMIA_VERSION_ALLOCATOR=malloc) and restore it afterwards.
  std::vector<std::pair<const char*, std::string>> saved;
  for (const char* var : kVars) {
    if (const char* v = std::getenv(var)) saved.emplace_back(var, v);
    ::unsetenv(var);
  }

  struct Case {
    const char* var;
    const char* value;
    void (*expect)(EngineConfig& c);  // the change the value must make
  };
  const Case cases[] = {
      {"ERMIA_VERSION_ALLOCATOR", "slab",
       [](EngineConfig& c) { c.version_allocator = VersionAllocMode::kSlab; }},
      {"ERMIA_VERSION_ALLOCATOR", "malloc",
       [](EngineConfig& c) {
         c.version_allocator = VersionAllocMode::kMalloc;
       }},
      {"ERMIA_TRACE", "off",
       [](EngineConfig& c) { c.trace_mode = TraceMode::kOff; }},
      {"ERMIA_TRACE", "all",
       [](EngineConfig& c) { c.trace_mode = TraceMode::kAll; }},
      {"ERMIA_TRACE", "sampled",
       [](EngineConfig& c) { c.trace_mode = TraceMode::kSampled; }},
      {"ERMIA_TRACE", "sampled:8",
       [](EngineConfig& c) {
         c.trace_mode = TraceMode::kSampled;
         c.trace_sample_every = 8;
       }},
      {"ERMIA_SSN_READOPT", "off",
       [](EngineConfig& c) { c.ssn_safe_snapshot = false; }},
      {"ERMIA_SSN_READOPT", "0",
       [](EngineConfig& c) { c.ssn_safe_snapshot = false; }},
      {"ERMIA_SSN_READOPT", "on",
       [](EngineConfig& c) { c.ssn_safe_snapshot = true; }},
      {"ERMIA_SSN_READOPT", "1",
       [](EngineConfig& c) { c.ssn_safe_snapshot = true; }},
      {"ERMIA_SSN_READOPT", "safesnap",
       [](EngineConfig& c) { c.ssn_safe_snapshot = true; }},
      {"ERMIA_OVERLOAD", "on",
       [](EngineConfig& c) { c.governor_enabled = true; }},
      {"ERMIA_OVERLOAD", "1",
       [](EngineConfig& c) { c.governor_enabled = true; }},
      {"ERMIA_OVERLOAD", "off",
       [](EngineConfig& c) { c.governor_enabled = false; }},
      {"ERMIA_OVERLOAD", "0",
       [](EngineConfig& c) { c.governor_enabled = false; }},
  };
  EngineConfig inverted;  // every overridable field off its default
  inverted.version_allocator = VersionAllocMode::kMalloc;
  inverted.trace_mode = TraceMode::kAll;
  inverted.trace_sample_every = 3;
  inverted.ssn_safe_snapshot = true;
  inverted.governor_enabled = true;
  for (const Case& c : cases) {
    for (const EngineConfig& base : {EngineConfig{}, inverted}) {
      SCOPED_TRACE(std::string(c.var) + "=" + c.value);
      EngineConfig want = base;
      c.expect(want);
      ASSERT_EQ(::setenv(c.var, c.value, 1), 0);
      // Heap-allocated: a Database is several MB (inline TID table).
      auto db = std::make_unique<Database>(base);
      const EngineConfig& got = db->config();
      EXPECT_EQ(got.version_allocator, want.version_allocator);
      EXPECT_EQ(got.trace_mode, want.trace_mode);
      EXPECT_EQ(got.trace_sample_every, want.trace_sample_every);
      EXPECT_EQ(got.ssn_safe_snapshot, want.ssn_safe_snapshot);
      EXPECT_EQ(got.governor_enabled, want.governor_enabled);
      db.reset();
      ::unsetenv(c.var);
    }
  }

  const std::pair<const char*, const char*> unknown[] = {
      {"ERMIA_VERSION_ALLOCATOR", "mallc"},
      {"ERMIA_TRACE", "sampled:0"},
      {"ERMIA_SSN_READOPT", "yes"},
      {"ERMIA_SSN_READOPT", "both"},
      {"ERMIA_SSN_READOPT", "readopt"},
      {"ERMIA_OVERLOAD", "2"},
  };
  for (const auto& [var, value] : unknown) {
    ASSERT_EQ(::setenv(var, value, 1), 0);
    EXPECT_DEATH(std::make_unique<Database>(EngineConfig{}),
                 std::string(var) + "=" + value + " is not one of");
    ::unsetenv(var);
  }

  for (const auto& [var, value] : saved) ::setenv(var, value.c_str(), 1);
}

TEST(CheckpointDaemonTest, PeriodicCheckpointsHappen) {
  EngineConfig config;
  config.checkpoint_interval_ms = 30;
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  for (int i = 0; i < 20; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k" + std::to_string(i), "v", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_GE(db->SnapshotMetrics().counter(metrics::Ctr::kCheckpointsTaken),
            1u);
  // And a restart recovers through one of those checkpoints.
  db.ShutDown();
  db.Restart(config);
  t = db->CreateTable("t");
  pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(db->Recover().ok());
  Transaction txn(db.get(), CcScheme::kSi);
  int n = 0;
  ASSERT_TRUE(txn.Scan(pk, Slice(), Slice(), -1,
                       [&](const Slice&, const Slice&) {
                         ++n;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(n, 20);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(GcPinningTest, OldSnapshotKeepsOldVersionsAlive) {
  EngineConfig config;
  config.enable_gc = false;  // drive GC by hand for determinism
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v0", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction pinned(db.get(), CcScheme::kSi);  // snapshot at v0
  Slice v;
  ASSERT_TRUE(pinned.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "v0");

  for (int i = 1; i <= 10; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Update(t, oid, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(txn.Commit().ok());
    db->gc().NotifyUpdate(t, oid);
  }
  // GC runs but must preserve everything the pinned snapshot can reach.
  db->gc().RunOnce();
  ASSERT_TRUE(pinned.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "v0");
  EXPECT_TRUE(pinned.Commit().ok());

  // With the pin gone, another pass may trim the chain down.
  for (int i = 0; i < 3; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Update(t, oid, "final").ok());
    ASSERT_TRUE(txn.Commit().ok());
    db->gc().NotifyUpdate(t, oid);
  }
  EXPECT_GT(db->gc().RunOnce(), 0u);
  Transaction check(db.get(), CcScheme::kSi);
  ASSERT_TRUE(check.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "final");
  EXPECT_TRUE(check.Commit().ok());
}

TEST(ValueSizeTest, EmptyAndLargeValues) {
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  const std::string big(256 * 1024, 'B');
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "empty", Slice(), nullptr).ok());
    ASSERT_TRUE(txn.Insert(t, pk, "big", big, nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db.get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(txn.Get(pk, "empty", &v).ok());
  EXPECT_EQ(v.size(), 0u);
  ASSERT_TRUE(txn.Get(pk, "big", &v).ok());
  EXPECT_EQ(v.ToString(), big);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(CatalogTest, ManyTablesAndIndexes) {
  testing::TempDb db;
  std::vector<Table*> tables;
  std::vector<Index*> indexes;
  for (int i = 0; i < 40; ++i) {
    Table* t = db->CreateTable("table" + std::to_string(i));
    tables.push_back(t);
    indexes.push_back(db->CreateIndex(t, "index" + std::to_string(i)));
  }
  ASSERT_TRUE(db->Open().ok());
  {
    Transaction txn(db.get(), CcScheme::kSi);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          txn.Insert(tables[i], indexes[i], "k", std::to_string(i), nullptr)
              .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  // FIDs resolve to the right objects.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(db->TableByFid(tables[i]->fid()), tables[i]);
    EXPECT_EQ(db->IndexByFid(indexes[i]->fid()), indexes[i]);
    EXPECT_EQ(db->TableByFid(indexes[i]->fid()), nullptr);  // wrong kind
  }
  Transaction txn(db.get(), CcScheme::kSi);
  for (int i = 0; i < 40; ++i) {
    Slice v;
    ASSERT_TRUE(txn.Get(indexes[i], "k", &v).ok());
    EXPECT_EQ(v.ToString(), std::to_string(i));
  }
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(TransactionLifetimeTest, DestructorAborts) {
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "doomed", "v", nullptr).ok());
    // No Commit/Abort: the destructor must roll back.
  }
  Transaction check(db.get(), CcScheme::kSi);
  Slice v;
  EXPECT_TRUE(check.Get(pk, "doomed", &v).IsNotFound());
  EXPECT_TRUE(check.Commit().ok());
}

TEST(UpdateChurnTest, HeavyChurnKeepsLatestVisibleAndGcTrims) {
  EngineConfig config;
  config.gc_interval_ms = 2;
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "hot", "0", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int i = 1; i <= 3000; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Update(t, oid, std::to_string(i)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Give the GC daemon a moment, then verify both the value and that the
  // chain did not grow unboundedly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Transaction txn(db.get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(txn.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "3000");
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_GT(db->SnapshotMetrics().counter(metrics::Ctr::kGcVersionsReclaimed),
            1000u);
}

TEST(MultiSchemeInterplayTest, SchemesShareOneDatabase) {
  // The CC scheme is per-transaction: SI, SSN, and OCC transactions can run
  // against the same tables (sequentially here) and observe each other.
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  {
    Transaction si(db.get(), CcScheme::kSi);
    ASSERT_TRUE(si.Insert(t, pk, "k", "from-si", nullptr).ok());
    ASSERT_TRUE(si.Commit().ok());
  }
  {
    Transaction occ(db.get(), CcScheme::kOcc);
    Oid oid = 0;
    ASSERT_TRUE(occ.GetOid(pk, "k", &oid).ok());
    ASSERT_TRUE(occ.Update(t, oid, "from-occ").ok());
    ASSERT_TRUE(occ.Commit().ok());
  }
  {
    Transaction ssn(db.get(), CcScheme::kSiSsn);
    Slice v;
    ASSERT_TRUE(ssn.Get(pk, "k", &v).ok());
    EXPECT_EQ(v.ToString(), "from-occ");
    ASSERT_TRUE(ssn.Commit().ok());
  }
}

}  // namespace
}  // namespace ermia
