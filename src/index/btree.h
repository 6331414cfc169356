// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Concurrent ordered index mapping binary keys to OIDs. This is the
// reproduction's Masstree substitute (see DESIGN.md): a B+-tree with
// optimistic lock coupling (Leis et al.). Readers validate per-node version
// counters and never latch; writers lock only the nodes they modify, with
// proactive splits during descent. Every structural change to a leaf bumps
// its version, which is exactly the hook the CC layer's node sets use for
// phantom protection (paper §3.6.2, inherited from Silo).
//
// Notes scoped to this reproduction:
//  * Keys are at most kMaxKeySize-1 bytes (scans need one byte of headroom
//    for successor cursors).
//  * Remove() deletes leaf entries in place without merging underfull nodes;
//    interior nodes are never freed until the tree is destroyed, so readers
//    need no hazard pointers.
//  * A full leaf whose new key lands in its upper half splits at the
//    insertion point, so ascending appends (per-range ones too) leave full
//    leaves behind; every other split takes the middle.
#ifndef ERMIA_INDEX_BTREE_H_
#define ERMIA_INDEX_BTREE_H_

#include <atomic>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "common/slice.h"
#include "common/spin_latch.h"
#include "common/status.h"
#include "common/varstr.h"
#include "log/log_record.h"

namespace ermia {

// Opaque reference to an index node plus the version observed when the node
// was read. CC node sets store these and re-validate at pre-commit.
struct NodeHandle {
  const void* node = nullptr;
  uint64_t version = 0;
};

class BTree {
 public:
  static constexpr int kFanout = 32;  // max keys per node

  BTree();
  ~BTree();
  ERMIA_NO_COPY(BTree);

  // Inserts key -> oid. Returns KeyExists (with *existing set) if the key is
  // already present. On success *handle holds the modified leaf with its
  // post-insert version so the caller can refresh its own node set.
  Status Insert(const Slice& key, Oid oid, NodeHandle* handle, Oid* existing);

  // Point lookup. Whether the key is found or not, *handle receives the leaf
  // consulted (a miss is an anti-dependency that phantom checks must cover).
  bool Lookup(const Slice& key, Oid* oid, NodeHandle* handle) const;

  // In-order scan over [lo, hi] (inclusive bounds; pass empty hi for
  // open-ended). The callback returns false to stop early. Every leaf
  // consulted is appended to *handles. Returns number of entries delivered.
  size_t Scan(const Slice& lo, const Slice& hi,
              const std::function<bool(const Slice& key, Oid oid)>& cb,
              std::vector<NodeHandle>* handles) const;

  // Reverse scan over [lo, hi], delivering entries in descending order.
  size_t ScanReverse(const Slice& lo, const Slice& hi,
                     const std::function<bool(const Slice& key, Oid oid)>& cb,
                     std::vector<NodeHandle>* handles) const;

  // Removes the key; returns NotFound if absent. A nonzero `expected` (OID 0
  // is never allocated) removes it only while it maps to that OID, and
  // returns NotFound otherwise. Bumps the leaf version.
  Status Remove(const Slice& key, Oid expected = 0);

  // Maps key -> oid whether or not the key is present. Not atomic against
  // concurrent writers of the same key: for log replay, which applies each
  // key's index inserts in log order on one thread.
  void Upsert(const Slice& key, Oid oid);

  // Re-reads a node's current stable version (spins across in-flight locks).
  static uint64_t StableVersion(const void* node);

  // Number of keys currently stored (O(n); for tests and diagnostics).
  size_t Size() const;

  // Monotone structural-activity counters (relaxed; sampled into the engine
  // metrics snapshot as gauges).
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t read_retries() const {
    return read_retries_.load(std::memory_order_relaxed);
  }

 private:
  struct Node;
  struct InnerNode;
  struct LeafNode;

  static bool Validate(const Node* node, uint64_t v);
  static bool TryLock(Node* node, uint64_t v);
  static void Unlock(Node* node);
  static int ChildIndex(const Node* inner, const Slice& key);
  static int LowerBoundPos(const Node* leaf, const Slice& key);

  LeafNode* DescendToLeaf(const Slice& key, uint64_t* leaf_version) const;
  // `leaf_split` is how many keys a split leaf keeps (inner nodes always
  // split at the middle).
  void SplitChild(InnerNode* parent, int child_idx, Node* child,
                  int leaf_split);
  void SplitRoot();
  Node* AllocInner();
  Node* AllocLeaf();

  // Split count (all splits funnel through SplitChild) and optimistic-read
  // restarts (version validation failed; reader re-descended).
  mutable std::atomic<uint64_t> splits_{0};
  mutable std::atomic<uint64_t> read_retries_{0};

  std::atomic<Node*> root_;
  // Guards root replacement; splits elsewhere use per-node locks only.
  mutable SpinLatch root_latch_;
  // All nodes ever allocated, for destruction (nodes are never freed during
  // operation; see file comment).
  mutable SpinLatch nodes_latch_;
  std::vector<Node*> all_nodes_;
};

}  // namespace ermia

#endif  // ERMIA_INDEX_BTREE_H_
