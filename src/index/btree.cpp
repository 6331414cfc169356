#include "index/btree.h"

#include <algorithm>
#include <cstring>

namespace ermia {

// ---------------------------------------------------------------------------
// Node layout and optimistic version-lock protocol.
//
// version word: even = unlocked, odd = locked. Writers CAS v -> v+1 to lock
// and store v+2 to unlock, so any modification advances the stable version by
// 2 and invalidates concurrent optimistic readers.
//
// heads[i] caches keys[i]'s first 8 bytes as a big-endian integer, zero-padded
// (a Masstree key slice). Searches compare heads as integers and fall back to
// the full key compare only on a tie, so a binary search touches the 256-byte
// head array instead of a different 66-byte key slot per probe. Heads are
// written wherever keys[] is and, like keys[], read optimistically and
// checked by the version word.
// ---------------------------------------------------------------------------

struct BTree::Node {
  std::atomic<uint64_t> version{2};
  bool is_leaf = false;
  int count = 0;
  uint64_t heads[kFanout];
  Varstr keys[kFanout];
};

struct BTree::InnerNode : BTree::Node {
  std::atomic<Node*> children[kFanout + 1];
};

struct BTree::LeafNode : BTree::Node {
  std::atomic<Oid> values[kFanout];
  std::atomic<LeafNode*> next{nullptr};
};

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "KeyHead byte-swaps a little-endian load");

// The key's first 8 bytes as a big-endian integer, zero-padded. Integer order
// of two heads equals memcmp order of the keys whenever the heads differ; a
// tie (e.g. "ab" vs "ab\0") says nothing and needs the full compare.
uint64_t KeyHead(const Slice& key) {
  uint64_t h = 0;
  std::memcpy(&h, key.data(), std::min<size_t>(key.size(), sizeof h));
  return __builtin_bswap64(h);
}

// Three-way compare of `key` (whose head is `head`) against node slot i.
int CompareSlot(const uint64_t* heads, const Varstr* keys, int i,
                const Slice& key, uint64_t head) {
  if (head != heads[i]) return head < heads[i] ? -1 : 1;
  return key.compare(keys[i].slice());
}

uint64_t AwaitStable(const std::atomic<uint64_t>& version) {
  Backoff backoff;
  uint64_t v = version.load(std::memory_order_acquire);
  while (v & 1) {
    backoff.Pause();
    v = version.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

uint64_t BTree::StableVersion(const void* node) {
  return AwaitStable(static_cast<const Node*>(node)->version);
}

bool BTree::Validate(const Node* node, uint64_t v) {
  return node->version.load(std::memory_order_acquire) == v;
}

bool BTree::TryLock(Node* node, uint64_t v) {
  ERMIA_DCHECK((v & 1) == 0);
  return node->version.compare_exchange_strong(v, v + 1,
                                               std::memory_order_acq_rel);
}

void BTree::Unlock(Node* node) {
  const uint64_t v = node->version.load(std::memory_order_relaxed);
  ERMIA_DCHECK(v & 1);
  node->version.store(v + 1, std::memory_order_release);
}

// First child index whose subtree may contain `key`: smallest i with
// key < keys[i], else count.
int BTree::ChildIndex(const Node* inner, const Slice& key) {
  const uint64_t head = KeyHead(key);
  int lo = 0, hi = inner->count;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (CompareSlot(inner->heads, inner->keys, mid, key, head) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// First position with keys[pos] >= key.
int BTree::LowerBoundPos(const Node* leaf, const Slice& key) {
  const uint64_t head = KeyHead(key);
  int lo = 0, hi = leaf->count;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (CompareSlot(leaf->heads, leaf->keys, mid, key, head) > 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BTree::BTree() {
  Node* leaf = AllocLeaf();
  root_.store(leaf, std::memory_order_release);
}

BTree::~BTree() {
  for (Node* n : all_nodes_) {
    if (n->is_leaf) {
      delete static_cast<LeafNode*>(n);
    } else {
      delete static_cast<InnerNode*>(n);
    }
  }
}

BTree::Node* BTree::AllocInner() {
  auto* n = new InnerNode();
  n->is_leaf = false;
  SpinLatchGuard g(nodes_latch_);
  all_nodes_.push_back(n);
  return n;
}

BTree::Node* BTree::AllocLeaf() {
  auto* n = new LeafNode();
  n->is_leaf = true;
  SpinLatchGuard g(nodes_latch_);
  all_nodes_.push_back(n);
  return n;
}

// Splits `child` (locked, full) under `parent` (locked, not full); the new
// sibling takes the keys from position `leaf_split` (leaves) or past the
// middle (inner nodes) on.
void BTree::SplitChild(InnerNode* parent, int child_idx, Node* child,
                       int leaf_split) {
  ERMIA_DCHECK(child->count == kFanout);
  ERMIA_DCHECK(parent->count < kFanout);
  ERMIA_DCHECK(leaf_split > 0 && leaf_split < kFanout);
  Varstr sep;
  uint64_t sep_head;
  Node* sibling;
  const int mid = kFanout / 2;
  if (child->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(child);
    auto* sib = static_cast<LeafNode*>(AllocLeaf());
    for (int i = leaf_split; i < kFanout; ++i) {
      sib->heads[i - leaf_split] = leaf->heads[i];
      sib->keys[i - leaf_split] = leaf->keys[i];
      sib->values[i - leaf_split].store(
          leaf->values[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    sib->count = kFanout - leaf_split;
    leaf->count = leaf_split;
    sib->next.store(leaf->next.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    leaf->next.store(sib, std::memory_order_release);
    sep = sib->keys[0];
    sep_head = sib->heads[0];
    sibling = sib;
  } else {
    auto* inner = static_cast<InnerNode*>(child);
    auto* sib = static_cast<InnerNode*>(AllocInner());
    // Middle key moves up; upper keys/children move to the sibling.
    sep = inner->keys[mid];
    sep_head = inner->heads[mid];
    for (int i = mid + 1; i < kFanout; ++i) {
      sib->heads[i - mid - 1] = inner->heads[i];
      sib->keys[i - mid - 1] = inner->keys[i];
    }
    for (int i = mid + 1; i <= kFanout; ++i) {
      sib->children[i - mid - 1].store(
          inner->children[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    sib->count = kFanout - mid - 1;
    inner->count = mid;
    sibling = sib;
  }
  // Insert (sep, sibling) into the parent at child_idx.
  for (int i = parent->count; i > child_idx; --i) {
    parent->heads[i] = parent->heads[i - 1];
    parent->keys[i] = parent->keys[i - 1];
    parent->children[i + 1].store(
        parent->children[i].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  parent->heads[child_idx] = sep_head;
  parent->keys[child_idx] = sep;
  parent->children[child_idx + 1].store(sibling, std::memory_order_release);
  parent->count++;
  splits_.fetch_add(1, std::memory_order_relaxed);
}

void BTree::SplitRoot() {
  SpinLatchGuard g(root_latch_);
  Node* old_root = root_.load(std::memory_order_acquire);
  const uint64_t v = AwaitStable(old_root->version);
  if (old_root->count != kFanout) return;  // someone already split it
  if (!TryLock(old_root, v)) return;       // racing writer; caller restarts
  auto* new_root = static_cast<InnerNode*>(AllocInner());
  const uint64_t nv = AwaitStable(new_root->version);
  ERMIA_CHECK(TryLock(new_root, nv));
  new_root->children[0].store(old_root, std::memory_order_relaxed);
  SplitChild(new_root, 0, old_root, kFanout / 2);
  root_.store(new_root, std::memory_order_release);
  Unlock(new_root);
  Unlock(old_root);
}

Status BTree::Insert(const Slice& key, Oid oid, NodeHandle* handle,
                     Oid* existing) {
  ERMIA_CHECK(key.size() < kMaxKeySize);  // scans need successor headroom
  const uint64_t head = KeyHead(key);
  Backoff backoff;
  for (;;) {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = AwaitStable(node->version);
    if (root_.load(std::memory_order_acquire) != node) continue;
    if (node->count == kFanout) {
      SplitRoot();
      backoff.Pause();
      continue;
    }
    bool restart = false;
    while (!node->is_leaf) {
      auto* inner = static_cast<InnerNode*>(node);
      const int idx = ChildIndex(inner, key);
      Node* child = inner->children[idx].load(std::memory_order_acquire);
      if (!Validate(node, v)) {
        restart = true;
        break;
      }
      uint64_t cv = AwaitStable(child->version);
      if (!Validate(node, v)) {
        restart = true;
        break;
      }
      if (child->count == kFanout) {
        // Proactive split so the parent always has room for the separator.
        if (!TryLock(node, v)) {
          restart = true;
          break;
        }
        if (!TryLock(child, cv)) {
          Unlock(node);
          restart = true;
          break;
        }
        // A key bound for the leaf's upper half splits it at the insertion
        // point: an append then leaves a full leaf behind instead of two
        // half-empty ones, which is what ascending keys would otherwise do.
        int leaf_split = kFanout / 2;
        if (child->is_leaf) {
          const int pos = LowerBoundPos(child, key);
          if (pos > kFanout / 2) leaf_split = std::min(pos, kFanout - 1);
        }
        SplitChild(inner, idx, child, leaf_split);
        Unlock(child);
        Unlock(node);
        restart = true;  // re-descend: the key may belong in the sibling
        break;
      }
      node = child;
      v = cv;
    }
    if (restart) {
      backoff.Pause();
      continue;
    }
    auto* leaf = static_cast<LeafNode*>(node);
    const int pos = LowerBoundPos(leaf, key);
    if (pos < leaf->count &&
        CompareSlot(leaf->heads, leaf->keys, pos, key, head) == 0) {
      const Oid ex = leaf->values[pos].load(std::memory_order_relaxed);
      if (!Validate(node, v)) {
        backoff.Pause();
        continue;
      }
      if (existing != nullptr) *existing = ex;
      if (handle != nullptr) *handle = {leaf, v};
      return Status::KeyExists();
    }
    if (!TryLock(node, v)) {
      backoff.Pause();
      continue;
    }
    // Lock acquired at version v: contents are exactly as read above.
    for (int i = leaf->count; i > pos; --i) {
      leaf->heads[i] = leaf->heads[i - 1];
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i].store(leaf->values[i - 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    leaf->heads[pos] = head;
    leaf->keys[pos].Assign(key);
    leaf->values[pos].store(oid, std::memory_order_relaxed);
    leaf->count++;
    Unlock(node);
    if (handle != nullptr) *handle = {leaf, v + 2};
    return Status::OK();
  }
}

BTree::LeafNode* BTree::DescendToLeaf(const Slice& key,
                                      uint64_t* leaf_version) const {
  Backoff backoff;
  for (;;) {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = AwaitStable(node->version);
    if (root_.load(std::memory_order_acquire) != node) continue;
    bool restart = false;
    while (!node->is_leaf) {
      auto* inner = static_cast<const InnerNode*>(node);
      const int idx = ChildIndex(inner, key);
      Node* child = inner->children[idx].load(std::memory_order_acquire);
      if (!Validate(node, v)) {
        restart = true;
        break;
      }
      uint64_t cv = AwaitStable(child->version);
      if (!Validate(node, v)) {
        restart = true;
        break;
      }
      node = child;
      v = cv;
    }
    if (restart) {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      backoff.Pause();
      continue;
    }
    *leaf_version = v;
    return static_cast<LeafNode*>(node);
  }
}

bool BTree::Lookup(const Slice& key, Oid* oid, NodeHandle* handle) const {
  const uint64_t head = KeyHead(key);
  Backoff backoff;
  for (;;) {
    uint64_t v;
    LeafNode* leaf = DescendToLeaf(key, &v);
    const int pos = LowerBoundPos(leaf, key);
    const bool found =
        pos < leaf->count &&
        CompareSlot(leaf->heads, leaf->keys, pos, key, head) == 0;
    const Oid value =
        found ? leaf->values[pos].load(std::memory_order_relaxed) : 0;
    if (!Validate(leaf, v)) {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      backoff.Pause();
      continue;
    }
    if (handle != nullptr) *handle = {leaf, v};
    if (found && oid != nullptr) *oid = value;
    return found;
  }
}

size_t BTree::Scan(const Slice& lo, const Slice& hi,
                   const std::function<bool(const Slice&, Oid)>& cb,
                   std::vector<NodeHandle>* handles) const {
  // Cursor with headroom for the one-byte successor suffix.
  char cursor_buf[kMaxKeySize + 1];
  size_t cursor_len = std::min(lo.size(), sizeof cursor_buf);
  std::memcpy(cursor_buf, lo.data(), cursor_len);

  struct Entry {
    Varstr key;
    Oid oid;
  };
  Entry snapshot[kFanout];

  size_t delivered = 0;
  Backoff backoff;

restart:
  for (;;) {
    const Slice cursor(cursor_buf, cursor_len);
    uint64_t v;
    LeafNode* leaf = DescendToLeaf(cursor, &v);
    for (;;) {
      // Snapshot the leaf, validate, then deliver from the snapshot.
      const int count = leaf->count;
      int n = 0;
      for (int i = 0; i < count; ++i) {
        const Slice k = leaf->keys[i].slice();
        if (k.compare(Slice(cursor_buf, cursor_len)) < 0) continue;
        if (!hi.empty() && hi.compare(k) < 0) break;
        snapshot[n].key = leaf->keys[i];
        snapshot[n].oid = leaf->values[i].load(std::memory_order_relaxed);
        ++n;
      }
      const bool exhausted =
          count > 0 && !hi.empty() && hi.compare(leaf->keys[count - 1].slice()) < 0;
      LeafNode* next = leaf->next.load(std::memory_order_acquire);
      if (!Validate(leaf, v)) {
        read_retries_.fetch_add(1, std::memory_order_relaxed);
        backoff.Pause();
        goto restart;
      }
      if (handles != nullptr) handles->push_back({leaf, v});
      for (int i = 0; i < n; ++i) {
        // Advance the cursor past this key before delivering so a restart
        // resumes correctly even if the callback has side effects.
        std::memcpy(cursor_buf, snapshot[i].key.data(), snapshot[i].key.size());
        cursor_buf[snapshot[i].key.size()] = '\0';
        cursor_len = snapshot[i].key.size() + 1;
        ++delivered;
        if (!cb(snapshot[i].key.slice(), snapshot[i].oid)) return delivered;
      }
      if (exhausted || next == nullptr) return delivered;
      const uint64_t nv = AwaitStable(next->version);
      leaf = next;
      v = nv;
    }
  }
}

size_t BTree::ScanReverse(const Slice& lo, const Slice& hi,
                          const std::function<bool(const Slice&, Oid)>& cb,
                          std::vector<NodeHandle>* handles) const {
  // Collect ascending, deliver descending. Adequate for the bounded ranges
  // the workloads use (e.g., latest-order-of-customer with a small history).
  struct Entry {
    Varstr key;
    Oid oid;
  };
  std::vector<Entry> entries;
  Scan(
      lo, hi,
      [&](const Slice& k, Oid o) {
        entries.push_back({Varstr(k), o});
        return true;
      },
      handles);
  size_t delivered = 0;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    ++delivered;
    if (!cb(it->key.slice(), it->oid)) break;
  }
  return delivered;
}

Status BTree::Remove(const Slice& key, Oid expected) {
  const uint64_t head = KeyHead(key);
  Backoff backoff;
  for (;;) {
    uint64_t v;
    LeafNode* leaf = DescendToLeaf(key, &v);
    const int pos = LowerBoundPos(leaf, key);
    const bool found =
        pos < leaf->count &&
        CompareSlot(leaf->heads, leaf->keys, pos, key, head) == 0 &&
        (expected == 0 ||
         leaf->values[pos].load(std::memory_order_relaxed) == expected);
    if (!found) {
      if (!Validate(leaf, v)) {
        backoff.Pause();
        continue;
      }
      return Status::NotFound();
    }
    if (!TryLock(leaf, v)) {
      backoff.Pause();
      continue;
    }
    for (int i = pos; i < leaf->count - 1; ++i) {
      leaf->heads[i] = leaf->heads[i + 1];
      leaf->keys[i] = leaf->keys[i + 1];
      leaf->values[i].store(leaf->values[i + 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    leaf->count--;
    Unlock(leaf);
    return Status::OK();
  }
}

void BTree::Upsert(const Slice& key, Oid oid) {
  for (;;) {
    Oid existing = 0;
    if (Insert(key, oid, nullptr, &existing).ok() || existing == oid) return;
    Remove(key, existing);
  }
}

size_t BTree::Size() const {
  size_t n = 0;
  Scan(
      Slice(), Slice(),
      [&](const Slice&, Oid) {
        ++n;
        return true;
      },
      nullptr);
  return n;
}

}  // namespace ermia
