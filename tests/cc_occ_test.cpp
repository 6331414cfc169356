// Silo-style OCC semantics (§4 baseline): commit-time read validation,
// writer-wins contention resolution (the reader starves, not the writer —
// the behavior the paper critiques), lazy conflict detection, no-wait
// write-write install, read-only snapshots, and phantom validation.
#include <gtest/gtest.h>

#include "test_util.h"

namespace ermia {
namespace {

class OccTest : public ::testing::Test {
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
    Transaction txn(db_->get(), CcScheme::kOcc);
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
    Transaction txn(db_->get(), CcScheme::kOcc);
    Slice v;
    Status s = txn.Get(pk_, key, &v);
    std::string out = s.ok() ? v.ToString() : "<" + s.ToString() + ">";
    EXPECT_TRUE(txn.Commit().ok());
    return out;
  }

  Oid OidOf(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::kOcc);
    Oid oid = 0;
    EXPECT_TRUE(txn.GetOid(pk_, key, &oid).ok());
    EXPECT_TRUE(txn.Commit().ok());
    return oid;
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

// The paper's core complaint: a writer overwriting a reader's footprint
// aborts the reader at commit time — writer always wins.
TEST_F(OccTest, WriterWinsReaderAborts) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x0");

  Put("x", "x1");  // writer commits mid-flight

  // Reader also writes something (not read-only) and must fail validation.
  const Oid y = OidOf("y");
  ASSERT_TRUE(reader.Update(table_, y, "r").ok());
  Status c = reader.Commit();
  EXPECT_TRUE(c.IsAborted()) << c.ToString();
  EXPECT_EQ(Get("x"), "x1");
  EXPECT_EQ(Get("y"), "y0");  // reader's write rolled back
}

// ...and the detection is lazy: the doomed reader does not learn about the
// conflict until commit (contrast with SiTest.FirstUpdaterWinsImmediately).
TEST_F(OccTest, ConflictDetectedOnlyAtCommit) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());
  Put("x", "x1");
  // Reads keep succeeding against the latest committed version.
  EXPECT_TRUE(reader.Read(table_, x, &v).ok());
  const Oid y = OidOf("y");
  EXPECT_TRUE(reader.Update(table_, y, "r").ok());  // no early conflict
  EXPECT_TRUE(reader.Commit().IsAborted());         // pays at the end
}

TEST_F(OccTest, BlindWritesBothOrderedByInstall) {
  const Oid x = OidOf("x");
  Transaction t1(db_->get(), CcScheme::kOcc);
  Transaction t2(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(t1.Update(table_, x, "t1").ok());
  ASSERT_TRUE(t2.Update(table_, x, "t2").ok());
  // Writes are buffered: neither has touched the record yet. First committer
  // installs; the second's CAS fails (no-wait).
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().IsConflict());
  EXPECT_EQ(Get("x"), "t1");
}

TEST_F(OccTest, ReadOnlySnapshotNeverAborts) {
  const Oid x = OidOf("x");
  Transaction ro(db_->get(), CcScheme::kOcc, /*read_only=*/true);
  Slice v;
  ASSERT_TRUE(ro.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x0");
  Put("x", "x1");
  // Snapshot reads are repeatable and the commit always succeeds.
  ASSERT_TRUE(ro.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x0");
  EXPECT_TRUE(ro.Commit().ok());
}

// A read-only snapshot begins at the current log tail, so it includes every
// commit that finished before the transaction began.
TEST_F(OccTest, ReadOnlySnapshotSeesCommitJustBeforeBegin) {
  const Oid x = OidOf("x");
  Put("x", "x1");
  Transaction ro(db_->get(), CcScheme::kOcc, /*read_only=*/true);
  Slice v;
  ASSERT_TRUE(ro.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x1");
  EXPECT_TRUE(ro.Commit().ok());
}

// A GC pass trims everything below the newest committed version when no
// transaction is active. A read-only OCC transaction that begins after the
// pass must still find that version, so its snapshot may not lag the horizon.
TEST(OccSnapshotGcTest, ReadOnlyReaderAfterGcPassSeesLatest) {
  EngineConfig config;
  config.gc_interval_ms = 500;  // keep both daemons idle: only RunOnce trims
  config.snapshot_daemon_interval_ms = 500;
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kOcc);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v0", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (const char* value : {"v1", "v2"}) {
    Transaction txn(db.get(), CcScheme::kOcc);
    ASSERT_TRUE(txn.Update(t, oid, value).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  db->gc().RunOnce();
  Transaction ro(db.get(), CcScheme::kOcc, /*read_only=*/true);
  Slice v;
  ASSERT_TRUE(ro.Get(pk, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v2");
  EXPECT_TRUE(ro.Commit().ok());
}

TEST_F(OccTest, ValidationPassesWhenFootprintUntouched) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  Transaction t(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(t.Read(table_, x, &v).ok());
  ASSERT_TRUE(t.Update(table_, y, "t").ok());
  Put("z", "unrelated");  // traffic outside the footprint
  EXPECT_TRUE(t.Commit().ok());
  EXPECT_EQ(Get("y"), "t");
}

TEST_F(OccTest, ReadMyOwnBufferedWrite) {
  const Oid x = OidOf("x");
  Transaction t(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(t.Update(table_, x, "mine").ok());
  Slice v;
  ASSERT_TRUE(t.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "mine");
  // Other transactions still see the committed value (write is buffered).
  EXPECT_EQ(Get("x"), "x0");
  ASSERT_TRUE(t.Commit().ok());
  EXPECT_EQ(Get("x"), "mine");
}

TEST_F(OccTest, ReadThenWriteSameRecordValidates) {
  const Oid x = OidOf("x");
  Transaction t(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(t.Read(table_, x, &v).ok());
  ASSERT_TRUE(t.Update(table_, x, v.ToString() + "+").ok());
  EXPECT_TRUE(t.Commit().ok());
  EXPECT_EQ(Get("x"), "x0+");
}

TEST_F(OccTest, PhantomInsertAbortsScanner) {
  Put("k1", "a");
  Transaction scanner(db_->get(), CcScheme::kOcc);
  int n = 0;
  ASSERT_TRUE(scanner
                  .Scan(pk_, "k0", "k9", -1,
                        [&](const Slice&, const Slice&) {
                          ++n;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(n, 1);
  Put("k2", "b");  // phantom
  const Oid x = OidOf("x");
  ASSERT_TRUE(scanner.Update(table_, x, "w").ok());
  Status c = scanner.Commit();
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.IsPhantom() || c.IsAborted());
}

TEST_F(OccTest, DeleteValidatesAgainstConcurrentRead) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());

  Transaction deleter(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(deleter.Delete(pk_, "x", x).ok());
  ASSERT_TRUE(deleter.Commit().ok());

  const Oid y = OidOf("y");
  ASSERT_TRUE(reader.Update(table_, y, "r").ok());
  EXPECT_TRUE(reader.Commit().IsAborted());  // x was overwritten (tombstone)
}

// An insert whose probe finds the key held only by a foreign in-flight insert
// must not build on the empty chain: once that insert rolls back (removing
// its index entry) the intent would install onto an unindexed OID, and a
// later insert of the key would win it a second time.
TEST_F(OccTest, InsertOverInFlightInsertHasOneWinner) {
  Transaction first(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(first.Insert(table_, pk_, "k", "first", nullptr).ok());

  Transaction second(db_->get(), CcScheme::kOcc);
  const Status s = second.Insert(table_, pk_, "k", "second", nullptr);
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  first.Abort();
  const bool second_won = s.ok() && second.Commit().ok();
  if (!second.finished()) second.Abort();
  EXPECT_FALSE(second_won);

  Transaction third(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(third.Insert(table_, pk_, "k", "third", nullptr).ok());
  ASSERT_TRUE(third.Commit().ok());
  EXPECT_EQ(Get("k"), "third");
}

// Reading a record that has no committed version is validated: the read
// fails once a foreign insert commits there, but not while it is in flight.
TEST_F(OccTest, AbsenceReadValidatesAgainstCommittedInsert) {
  Transaction inserter(db_->get(), CcScheme::kOcc);
  Oid oid = 0;
  ASSERT_TRUE(inserter.Insert(table_, pk_, "k", "v", &oid).ok());

  Transaction early(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(early.Read(table_, oid, &v).IsNotFound());
  EXPECT_TRUE(early.Commit().ok());  // insert still in flight

  Transaction late(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(late.Read(table_, oid, &v).IsNotFound());
  ASSERT_TRUE(inserter.Commit().ok());
  ASSERT_TRUE(late.Update(table_, OidOf("y"), "late").ok());
  EXPECT_TRUE(late.Commit().IsAborted());
}

}  // namespace
}  // namespace ermia
