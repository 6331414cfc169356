// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Serializability oracle for committed histories. Workloads stamp every
// written value with a unique 8-byte little-endian write id; each committed
// transaction reports its footprint (reads: record -> write id observed,
// writes: record -> write id produced, overwrites: record -> write id
// replaced). From the footprints the checker reconstructs the dependency
// graph:
//
//   WR  creator(wid) -> reader          (read this txn's version)
//   WW  creator(prev_wid) -> overwriter (installed right after prev)
//   RW  reader(wid) -> overwriter(wid)  (anti-dependency: read a version
//                                        that someone else then replaced)
//
// A committed history is (conflict-)serializable iff this graph is acyclic
// (Adya's DSG restricted to committed transactions). Serializable schemes
// (SSN, OCC) must always yield an acyclic graph; plain SI is allowed to
// produce cycles (write skew: two RW edges), and the oracle must DETECT
// those — cc_si_test asserts the positive case, so a checker bug that never
// reports cycles cannot silently pass the acyclicity tests.
//
// Thread safety: NextWriteId() and AddCommitted() are safe to call from
// concurrent workers; Check() is called after workers join.
#ifndef ERMIA_TESTS_HISTORY_CHECKER_H_
#define ERMIA_TESTS_HISTORY_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/slice.h"

namespace ermia {
namespace testing {

// One committed transaction's footprint. `cstamp` only needs to be a unique
// node id per committed transaction — txn.tid() qualifies (slot index plus
// generation; generations never repeat within a run).
struct TxnFootprint {
  uint64_t cstamp = 0;
  std::map<uint64_t, uint64_t> reads;       // record -> write id observed
  std::map<uint64_t, uint64_t> overwrites;  // record -> write id replaced
  std::map<uint64_t, uint64_t> writes;      // record -> write id produced
};

// Builds one transaction's footprint as the workload executes. Usage inside
// a worker loop, for a transaction reading stamped values:
//
//   FootprintBuilder fp;
//   ... Slice v; txn.Read(table, oid, &v); fp.OnRead(oid, v);
//   ... uint64_t wid = checker.NextWriteId();
//       txn.Update(table, oid, HistoryChecker::EncodeWriteId(wid, buf));
//       fp.OnWrite(oid, wid);
//   if (txn.Commit().ok()) checker.AddCommitted(fp.Finish(txn.tid()));
class FootprintBuilder {
 public:
  // Record a read of `record` that observed stamped value `v`. An unstamped
  // value (seed data not 8 bytes long) is treated as "initial version"
  // (write id 0), which generates no edges.
  void OnRead(uint64_t record, const Slice& v);

  // Record a write of `record` with freshly allocated id `wid`. The version
  // being replaced is the one the preceding OnRead of this record observed
  // (reads-before-writes discipline); repeated writes to the same record
  // keep the first overwrite target, and the read edge is superseded by the
  // own-write (a txn reading its own write creates no dependency).
  void OnWrite(uint64_t record, uint64_t wid);

  TxnFootprint Finish(uint64_t cstamp) &&;

 private:
  TxnFootprint fp_;
  std::map<uint64_t, uint64_t> last_seen_;  // record -> last observed wid
};

class HistoryChecker {
 public:
  struct Result {
    bool cyclic = false;
    size_t num_txns = 0;
    size_t num_edges = 0;
    // cstamps along one detected cycle (first == last omitted), empty when
    // acyclic.
    std::vector<uint64_t> cycle;
    // Footprints of the cycle's transactions, for failure diagnosis.
    std::string cycle_detail;

    std::string Describe() const;
  };

  // Unique id to stamp into the next written value (never returns 0).
  uint64_t NextWriteId() { return next_write_id_.fetch_add(1); }

  // Stamps `wid` into caller-provided storage and returns a Slice over it.
  static Slice EncodeWriteId(uint64_t wid, char (&buf)[8]);
  // 0 (initial / unstamped) unless `v` is exactly 8 bytes.
  static uint64_t DecodeWriteId(const Slice& v);

  void AddCommitted(TxnFootprint&& txn);
  size_t CommittedCount() const;

  // Reconstructs the dependency graph and searches for a cycle. Call after
  // all workers have joined (not thread-safe against AddCommitted).
  Result Check() const;

 private:
  std::atomic<uint64_t> next_write_id_{1};
  mutable std::mutex mu_;
  std::vector<TxnFootprint> history_;
};

}  // namespace testing
}  // namespace ermia

#endif  // ERMIA_TESTS_HISTORY_CHECKER_H_
