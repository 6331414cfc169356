// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Per-thread transaction resource reuse. Every Transaction needs the same
// set of growable containers — read/write/node/index-insert sets,
// scratch versions, and the private log staging buffer. Rather
// than heap-allocating them per transaction, each worker thread keeps a
// small pool of TxnResources objects: Transaction::Transaction acquires one
// (cleared, capacity retained from earlier transactions on this thread) and
// Finish returns it, so steady-state transactions perform zero allocator
// calls for bookkeeping.
#ifndef ERMIA_TXN_TXN_RESOURCES_H_
#define ERMIA_TXN_TXN_RESOURCES_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "index/btree.h"
#include "storage/table.h"
#include "storage/version.h"

namespace ermia {

struct ReadSetEntry {
  Version* version;             // the version this transaction read
  std::atomic<Version*>* slot;  // its indirection slot (OCC validation)
};

struct WriteSetEntry {
  Table* table;
  Oid oid;
  Version* version;  // new version: installed (SI/SSN) or intent (OCC)
  Version* prev;     // head observed/overwritten; nullptr for inserts
  std::atomic<Version*>* slot;
  bool is_insert;
  bool installed;  // version is at the chain head (OCC installs at commit)
  uint32_t staging_payload_off;  // payload position inside staging
};

struct TxnResources {
  std::vector<ReadSetEntry> read_set;
  std::vector<WriteSetEntry> write_set;
  std::vector<NodeHandle> node_set;
  std::vector<IndexEntry> index_inserts;
  std::vector<IndexEntry> index_deletes;
  std::vector<Version*> scratch_versions;
  std::vector<char> staging;

  // Clears every container, retaining capacity (the point of the pool).
  void Clear() {
    read_set.clear();
    write_set.clear();
    node_set.clear();
    index_inserts.clear();
    index_deletes.clear();
    scratch_versions.clear();
    staging.clear();
  }
};

class TxnResourcePool {
 public:
  // Hands out a cleared TxnResources; *pool_hit reports whether it came from
  // this thread's pool (steady state) or a fresh heap construction.
  static TxnResources* Acquire(bool* pool_hit);
  // Clears and returns `res` to the calling thread's pool (transactions are
  // thread-bound, so release happens on the acquiring thread).
  static void Release(TxnResources* res);
  // Entries currently parked in the calling thread's pool (tests).
  static size_t PooledCountForTesting();
};

}  // namespace ermia

#endif  // ERMIA_TXN_TXN_RESOURCES_H_
